package repro.surgebench

import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import repro.core._
import repro.data.SpatialStreams
import repro.data.SpatialStreams.DatasetSpec
import repro.stream.EventStream

/** A benchmark workload: a dataset's stream at the paper's arrival rate and
  * a detector under a reporting policy. See README.md for why each exists.
  *
  * @param detector    "ccs", "gaps" or "kccs"
  * @param pollMillis  CCS only: report once per this much stream time
  *                    instead of after every event (0)
  * @param segments    stream positions an end-to-end run measures
  * @param span        objects per segment: the windows' fill plus more
  *                    events than a segment measures
  * @param sampleEvery events between sampled (and later checked) reports
  * @param checks      reports checked per run
  * @param traceEvents events replayed by the traced run (a fixed count, so
  *                    that its counters repeat exactly for a seed)
  */
final case class Workload(name: String, spec: DatasetSpec, detector: String, pollMillis: Long,
                          segments: Int, span: Int, sampleEvery: Long, checks: Int,
                          traceEvents: Int) {
  def config: SurgeConfig = spec.config(Bench.Alpha)

  def newDet(cfg: SurgeConfig): Det = detector match {
    case "ccs"  => new CcsDet(cfg, pollMillis)
    case "gaps" => new GapsDet(cfg)
    case "kccs" => new KccsDet(cfg, Bench.K)
  }
}

object Bench {
  /** Objects per stream: the paper's stream size, so `rateMultiplier = 1`
    * reproduces the paper's arrival rate and duration.
    */
  val N     = 1000000
  val Alpha = 0.5
  val K     = 5

  /** Segments a traced run replays. */
  val TraceSegments = 4

  /** A detector's cost swings by ±25% along a stream as burst episodes come
    * and go (each lasts about an hour of stream time, longer than a run can
    * replay), so a run measures short segments spread evenly over the whole
    * stream, each on a fresh detector whose windows have just filled.
    */
  val workloads: Seq[Workload] = Seq(
    Workload("gaps-taxi", SpatialStreams.Taxi, "gaps", 0L, 24, 300000, 40000L, 48, 400000),
    Workload("ccs-taxi-poll", SpatialStreams.Taxi, "ccs", 60000L, 24, 100000, 10000L, 48, 200000),
    // Not in BENCHMARK.json: on a shared 4-vCPU VM its throughput and p99
    // spread by about 40% between runs, more than any bound allows.
    Workload("ccs-us", SpatialStreams.US, "ccs", 0L, 24, 150000, 600L, 4, 20000),
  )

  /** Events each detector a workload does not run is traced for, on the
    * Taxi stream of the same seed, so that every layer reports on every
    * workload. These probes are not the workload's own measurement.
    */
  private val probeEvents: Map[String, Int] = Map("ccs" -> 5000, "gaps" -> 100000, "kccs" -> 2000)

  def stream(spec: DatasetSpec, seed: Long, n: Int): IndexedSeq[SpatialObj] =
    SpatialStreams.generate(spec.copy(seed = seed), n, rateMultiplier = 1e6 / n)

  /** Segment `k` of `m`, evenly spaced: the objects a fresh detector sees. */
  def segment(all: IndexedSeq[SpatialObj], span: Int, k: Int, m: Int): IndexedSeq[SpatialObj] = {
    val off = ((all.length - span).toLong * k / m).toInt
    all.slice(off, off + span)
  }

  /** A detector whose windows are full, and the first event after that
    * (the first `Expired`, where timing starts — §VII-A).
    */
  final class Pass(val det: Det, val it: Iterator[Event], var next: Event, var index: Long)

  def startPass(w: Workload, cfg: SurgeConfig, objs: IndexedSeq[SpatialObj]): Pass = {
    val det = w.newDet(cfg)
    val it  = EventStream.fromObjects(objs, cfg.windowMillis, drainTail = false)
    var e   = it.next()
    var i   = 0L
    while (e.kind != EventKind.Expired) { det.fill(e); e = it.next(); i += 1 }
    det.endFill()
    new Pass(det, it, e, i)
  }

  /** A pass over one segment that starts over, on a fresh detector and
    * outside the timed region, whenever it reaches the segment's end.
    */
  final class Runner(w: Workload, cfg: SurgeConfig, objs: IndexedSeq[SpatialObj]) {
    var pass: Pass = startPass(w, cfg, objs)

    /** Runs `body(pass, deadline)` until `budget` ns are spent; returns
      * the sum of what `body` returned and the ns spent.
      */
    def run(budget: Long)(body: (Pass, Long) => Long): (Long, Long) = {
      var spent = 0L
      var n     = 0L
      while (spent < budget) {
        if (!pass.it.hasNext) { pass = null; pass = startPass(w, cfg, objs) }
        val t0 = System.nanoTime()
        n += body(pass, t0 + budget - spent)
        spent += System.nanoTime() - t0
      }
      (n, spent)
    }
  }

  private def gcCounts(): (Long, Long) = {
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (gcs.map(_.getCollectionCount).sum, gcs.map(_.getCollectionTime).sum)
  }

  /** State held by a detector and its event iterator, not counting the
    * input stream's objects; taken right after a set-up, at a point fixed
    * by the seed.
    */
  private def stateBytes(p: Pass): Long = DeepSize.of(Seq(p.det, p.it), o =>
    o.isInstanceOf[SpatialObj] || o.isInstanceOf[Class[_]] ||
      o.getClass.getName.startsWith("scala.collection.immutable.Vector"))

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  final class Metrics {
    val values = scala.collection.mutable.LinkedHashMap.empty[String, (Double, String)]
    def update(name: String, vu: (Double, String)): Unit = values(name) = vu
    def json: String = values.map { case (k, (v, u)) =>
      s""""$k": {"value": ${if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString}, "unit": "$u"}"""
    }.mkString("{", ", ", "}")
  }

  /** Feeds events from `p` until `deadline` or the end of the segment.
    * Batch-timed: the clock is read once per 256 events. Returns events fed.
    */
  private def feedUntil(p: Pass, deadline: Long, samples: Samples): Long = {
    val det  = p.det
    val it   = p.it
    var e    = p.next
    var i    = p.index
    var n    = 0L
    var more = true
    while (more) {
      samples.offer(i, det.feed(e))
      i += 1; n += 1
      if (!it.hasNext) more = false
      else {
        e = it.next()
        if ((n & 255) == 0 && System.nanoTime() >= deadline) more = false
      }
    }
    p.next = e; p.index = i
    n
  }

  /** Per-event latency: the time from handing an event to the detector
    * until its call(s), including a due report, return.
    */
  private def timeEach(p: Pass, deadline: Long, lat: Array[Int], from: Int): Int = {
    val det  = p.det
    val it   = p.it
    var e    = p.next
    var k    = from
    var more = k < lat.length
    while (more) {
      val t0 = System.nanoTime()
      det.feed(e)
      val t1 = System.nanoTime()
      lat(k) = math.min(t1 - t0, Int.MaxValue.toLong).toInt
      k += 1
      if (!it.hasNext) more = false
      else { e = it.next(); if (t1 >= deadline || k == lat.length) more = false }
    }
    p.next = e
    k
  }

  /** JIT warm-up on the measured code path; discarded. */
  private def warmUp(w: Workload, cfg: SurgeConfig, objs: IndexedSeq[SpatialObj]): Unit =
    new Runner(w, cfg, objs).run(1000000000L)((p, d) => feedUntil(p, d, Samples.none))

  /** Reports checked in segment `k` of `m`: `checks` spread evenly. */
  private def quota(checks: Int, k: Int, m: Int): Int = checks * (k + 1) / m - checks * k / m

  // ------------------------------------------------------------------
  // End-to-end run
  // ------------------------------------------------------------------

  final case class Outcome(metrics: Metrics, checked: Int, wrong: Int, events: Long)

  def endToEnd(w: Workload, all: IndexedSeq[SpatialObj], seconds: Double,
               info: StringBuilder): Outcome = {
    val cfg = w.config
    val segs = w.segments
    warmUp(w, cfg, segment(all, w.span, 0, segs))

    // Per segment: set-up (timed as setup_s), then 40% of its share of the
    // budget batch-timed for throughput, then 60% with per-event clock
    // reads for latency, whose p99 needs the larger sample.
    val tSlice  = (seconds * 0.4e9 / segs).toLong
    val lSlice  = (seconds * 0.6e9 / segs).toLong
    val setups  = new Array[Double](segs)
    val states  = ArrayBuffer.empty[Double]
    val lat     = new Array[Int](16000000)
    var nLat    = 0
    var events  = 0L
    var spent   = 0L
    var checked = 0
    var wrong   = 0
    var c0      = 0L
    for (k <- 0 until segs) {
      val objs   = segment(all, w.span, k, segs)
      val t0     = System.nanoTime()
      val runner = new Runner(w, cfg, objs)
      setups(k) = (System.nanoTime() - t0) / 1e9
      if (k % 4 == 0) states += stateBytes(runner.pass) / 1e6
      val samples = new Samples(quota(w.checks, k, segs), w.sampleEvery, runner.pass.index)
      val (n, ns) = runner.run(tSlice)((p, d) => feedUntil(p, d, samples))
      events += n; spent += ns
      runner.run(lSlice) { (p, d) => val b = nLat; nLat = timeEach(p, d, lat, nLat); nLat - b }
      val v0 = System.nanoTime()
      wrong += Reference.verify(objs, cfg, samples, null)
      checked += samples.size
      c0 += System.nanoTime() - v0
    }
    java.util.Arrays.sort(lat, 0, nLat)
    def pct(q: Double): Double = lat(math.min(nLat - 1, math.ceil(q * nLat).toInt - 1)) / 1e3

    val m = new Metrics
    m("events_per_s") = (events / (spent / 1e9), "1/s")
    m("latency_p50_us") = (pct(0.50), "us")
    m("latency_p99_us") = (pct(0.99), "us")
    m("setup_s") = (median(setups.toSeq), "s")
    m("state_mb") = (median(states.toSeq), "MB")
    info ++= f"check_s=${c0 / 1e9}%.2f latency_samples=$nLat segments=$segs"
    Outcome(m, checked, wrong, events)
  }

  // ------------------------------------------------------------------
  // Traced run
  // ------------------------------------------------------------------

  /** Fixed-count replays of one workload's detector over some segments. */
  final class Replay(val w: Workload, val dets: Seq[Det], val segs: Seq[(IndexedSeq[SpatialObj], Samples)],
                     val starts: Seq[Long], val events: Long, val ns: Long, val searches: Long,
                     val rects: Long, val kinds: Array[Long], val from: Int, val until: Int)

  /** Feeds exactly `n` events after the windows fill, on each segment; with
    * `sp` non-null, one root span per event (id = its index in the segment)
    * and a child span per call into `EventStream` and the detector.
    */
  private def replay(w: Workload, segs: Seq[IndexedSeq[SpatialObj]], n: Int, sp: Spans,
                     checks: Int): Replay = {
    val cfg    = w.config
    val kinds  = new Array[Long](3)
    val from   = if (sp == null) 0 else sp.mark
    var ns     = 0L
    var search = 0L
    var rects  = 0L
    val runs = segs.zipWithIndex.map { case (objs, si) =>
      val p       = startPass(w, cfg, objs)
      val det     = p.det
      val samples = new Samples(quota(checks, si, segs.length), w.sampleEvery, p.index)
      val s0      = det.searches
      val r0      = det.sweptRects
      var e       = p.next
      var i       = p.index
      var k       = 0
      val t0      = System.nanoTime()
      while (k < n) {
        kinds(e.kind match {
          case EventKind.New => 0; case EventKind.Grown => 1; case EventKind.Expired => 2
        }) += 1
        if (sp == null) {
          det.feed(e)
          e = p.it.next()
        } else {
          val root = sp.begin(Spans.Event, -1, i)
          samples.offer(i, det.feedTraced(e, sp, root, i))
          val s = sp.begin(Spans.EventStreamNext, root, i)
          e = p.it.next()
          sp.end(s)
          sp.end(root)
        }
        i += 1; k += 1
      }
      ns += System.nanoTime() - t0
      search += det.searches - s0
      rects += det.sweptRects - r0
      (det, objs, samples, p.index)
    }
    new Replay(w, runs.map(_._1), runs.map(r => (r._2, r._3)), runs.map(_._4), n.toLong * segs.length,
      ns, search, rects, kinds, from, if (sp == null) 0 else sp.mark)
  }

  def traced(w: Workload, all: IndexedSeq[SpatialObj], taxi: IndexedSeq[SpatialObj],
             spansOut: String, info: StringBuilder): Outcome = {
    val segs   = (0 until TraceSegments).map(segment(all, w.span, _, TraceSegments))
    val perSeg = w.traceEvents / TraceSegments
    val probes = Seq("ccs", "gaps", "kccs").filter(_ != w.detector).map { d =>
      Workload(s"probe-$d", SpatialStreams.Taxi, d, 0L, 1, 100000, probeEvents(d) / 4L, 2, probeEvents(d))
    }
    val sp = new Spans(4 * (w.traceEvents + probes.map(_.traceEvents).sum) + (1 << 20))
    // The first replay only warms the JIT, so that untraced and traced
    // replays compare like with like.
    replay(w, segs, perSeg, null, 0)
    val (gc0, gcMs0) = gcCounts()
    val a0           = Alloc.now()
    val plain        = replay(w, segs, perSeg, null, 0)
    val alloc        = Alloc.now() - a0
    val (gc1, gcMs1) = gcCounts()

    val main   = replay(w, segs, perSeg, sp, w.checks)
    val probeSeg = segment(taxi, 100000, 0, 1)
    val others = probes.map(p => replay(p, Seq(probeSeg), p.traceEvents, sp, p.checks))

    // EventStream alone over the same events: median of three passes.
    val esRuns = (1 to 3).map { _ =>
      var ns = 0L; var bytes = 0L; var total = 0L
      segs.zip(main.starts).foreach { case (objs, start) =>
        val it = EventStream.fromObjects(objs, w.config.windowMillis, drainTail = false)
        val m  = start + perSeg
        val b0 = Alloc.now(); val t0 = System.nanoTime()
        var k  = 0L
        while (k < m) { it.next(); k += 1 }
        ns += System.nanoTime() - t0; bytes += Alloc.now() - b0; total += m
      }
      (ns.toDouble / total, bytes.toDouble / total)
    }

    // The checks of the probes too: on a GAPS workload they are the only sweeps.
    val replays   = main +: others
    val checkFrom = sp.mark
    Reference.sweptRects = 0L
    val wrong = replays.map { r =>
      r.segs.map { case (objs, s) => Reference.verify(objs, r.w.config, s, sp) }.sum
    }.sum
    val checked = replays.map(_.segs.map(_._2.size).sum).sum
    sp.write(spansOut)

    def of(d: String) = replays.find(_.w.detector == d).get
    def totals(r: Replay) = sp.totals(r.from, r.until)
    def per(a: Double, b: Double) = if (b == 0) 0.0 else a / b
    val ccsR  = of("ccs")
    val ccsT  = totals(ccsR)
    val gapsR = of("gaps")
    val gapsT = totals(gapsR)
    val kR    = of("kccs")
    val kT    = totals(kR)
    val mainT = totals(main)
    val sweep = sp.totals(checkFrom, sp.mark)(Spans.SweepLineSweep)
    val proc  = ccsT(Spans.CellCspotProcess)
    val query = ccsT(Spans.CellCspotQuery)
    val ccsDets = ccsR.dets.map(_.asInstanceOf[CcsDet])

    val m = new Metrics
    m("eventstream.ns_per_event") = (median(esRuns.map(_._1)), "ns")
    m("eventstream.alloc_bytes_per_event") = (median(esRuns.map(_._2)), "bytes")
    m("eventstream.event_pct") =
      (100 * per(mainT(Spans.EventStreamNext).selfNs, mainT(Spans.Event).totalNs), "%")
    m("cellcspot.process.ns_per_event") = (per(proc.selfNs, proc.count), "ns")
    m("cellcspot.process.alloc_bytes_per_event") = (per(proc.selfBytes, proc.count), "bytes")
    m("cellcspot.query.ns_per_call") = (per(query.selfNs, query.count), "ns")
    m("cellcspot.query.ns_per_search") = (per(query.selfNs, ccsR.searches), "ns")
    m("cellcspot.query.alloc_bytes_per_call") = (per(query.selfBytes, query.count), "bytes")
    m("cellcspot.query.calls") = (query.count.toDouble, "count")
    m("cellcspot.query.searches") = (ccsR.searches.toDouble, "count")
    m("cellcspot.query.search_ratio") = (per(ccsDets.map(_.eventsWithSearch).sum, ccsR.events), "ratio")
    m("cellcspot.query.detector_pct") = (100 * per(query.selfNs, proc.selfNs + query.selfNs), "%")
    m("cellcspot.cells_live") = (ccsDets.map(_.ccs.cellCount).sum.toDouble / ccsDets.length, "count")
    m("sweepline.rects_per_search") = (per(ccsR.rects, ccsR.searches), "count")
    m("sweepline.ns_per_rect") = (per(sweep.totalNs, Reference.sweptRects), "ns")
    m("sweepline.alloc_bytes_per_rect") = (per(sweep.selfBytes, Reference.sweptRects), "bytes")
    m("gapsurge.process.ns_per_event") = (per(gapsT(Spans.GapSurgeProcess).selfNs, gapsR.events), "ns")
    m("gapsurge.top.ns_per_call") =
      (per(gapsT(Spans.GapSurgeTop).selfNs, gapsT(Spans.GapSurgeTop).count), "ns")
    m("gapsurge.cells_live") = (gapsR.dets.map(_.asInstanceOf[GapsDet].gaps.cellCount).sum.toDouble /
      gapsR.dets.length, "count")
    m("kcellcspot.ns_per_event") = (per(kT(Spans.KCellCspotEvent).selfNs, kR.events), "ns")
    m("kcellcspot.searches_per_event") = (per(kR.searches, kR.events), "count")
    m("events.new") = (main.kinds(0).toDouble, "count")
    m("events.grown") = (main.kinds(1).toDouble, "count")
    m("events.expired") = (main.kinds(2).toDouble, "count")
    m("jvm.gc_ms") = ((gcMs1 - gcMs0).toDouble, "ms")
    m("jvm.gc_count") = ((gc1 - gc0).toDouble, "count")
    m("alloc_bytes_per_event") = (per(alloc, plain.events), "bytes")
    m("trace.overhead_pct") = (100 * (per(main.ns, plain.ns) - 1), "%")

    info ++= f"untraced ${plain.events / (plain.ns / 1e9)}%.0f events/s, traced ${
      main.events / (main.ns / 1e9)}%.0f events/s\n"
    replays.foreach { r =>
      info ++= layerTable(s"${r.w.name}: ${r.w.detector} x ${r.events} events", totals(r))
    }
    info ++= layerTable("checks", sp.totals(checkFrom, sp.mark))
    Outcome(m, checked, wrong, main.events)
  }

  private val detectorLayers = Set(Spans.CellCspotProcess, Spans.CellCspotQuery, Spans.GapSurgeProcess,
    Spans.GapSurgeTop, Spans.KCellCspotEvent)

  /** Self time per layer: calls, ms, share of the root spans' time, share
    * of the detector's self time, allocated bytes per call.
    */
  private def layerTable(title: String, t: Array[LayerTotal]): String = {
    val roots   = (t(Spans.Event).totalNs + t(Spans.Check).totalNs).toDouble
    val detSelf = detectorLayers.toSeq.map(t(_).selfNs).sum.toDouble
    val sb      = new StringBuilder(s"-- $title\n")
    sb ++= f"${"layer"}%-24s ${"calls"}%10s ${"self ms"}%10s ${"% event"}%8s ${"% detector"}%10s ${"B/call"}%10s\n"
    t.indices.filter(t(_).count > 0).foreach { i =>
      val l   = t(i)
      val det = if (detectorLayers(i)) f"${100 * l.selfNs / detSelf}%.1f" else "-"
      sb ++= f"${l.name}%-24s ${l.count}%10d ${l.selfNs / 1e6}%10.1f ${100 * l.selfNs / roots}%8.1f $det%10s ${
        l.selfBytes.toDouble / l.count}%10.0f\n"
    }
    sb.toString
  }

  // ------------------------------------------------------------------
  // Self-test of the checks
  // ------------------------------------------------------------------

  /** Shifts every reported score: what a detector with a wrong score looks like. */
  private def perturb(r: AnyRef): AnyRef = {
    def p(bp: BurstyPoint) = bp.copy(score = bp.score * 1.001 + 1e-3)
    r match {
      case Some(c: CellResult)  => Some(c.copy(score = c.score * 1.001 + 1e-3))
      case Some(bp: BurstyPoint) => Some(p(bp))
      case ks: IndexedSeq[_]    => ks.map(_.asInstanceOf[Option[BurstyPoint]].map(p))
      case other                => other
    }
  }

  /** The checks of every detector (kCCS too: the traced run probes it) at
    * a small n on the Taxi geometry: honest reports must all pass and
    * perturbed ones must all fail.
    */
  def selfTest(): Boolean = Seq("ccs", "gaps", "kccs").map { d =>
    val w      = Workload(s"$d-taxi", SpatialStreams.Taxi, d, 0L, 1, 8000, 50L, 40, 0)
    val objs   = stream(w.spec, 7L, w.span)
    val cfg    = w.config
    val p      = startPass(w, cfg, objs)
    val honest = new Samples(w.checks, w.sampleEvery, p.index)
    val bent   = new Samples(w.checks, w.sampleEvery, p.index)
    var e = p.next
    var i = p.index
    while (p.it.hasNext && !honest.full) {
      val r = p.det.feed(e)
      if (honest.offer(i, r)) bent.offer(i, perturb(r))
      e = p.it.next(); i += 1
    }
    val ok = Reference.verify(objs, cfg, honest, null)
    val caught = Reference.verify(objs, cfg, bent, null)
    val pass = honest.size > 0 && ok == 0 && caught == bent.size
    println(s"self-test ${w.name}: checked=${honest.size} wrong=$ok perturbed_caught=$caught/${bent.size} ${if (pass) "ok" else "FAIL"}")
    pass
  }.forall(identity)

  // ------------------------------------------------------------------
  // Entry point
  // ------------------------------------------------------------------

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    if (args.sameElements(Array("--self-test"))) sys.exit(if (selfTest()) 0 else 1)
    val w = workloads.find(_.name == opts("workload")).getOrElse(
      throw new IllegalArgumentException(s"unknown workload ${opts("workload")}"))
    val seed    = opts("seed").toLong
    val seconds = opts("seconds").toDouble
    val trace   = opts("trace") == "1"
    val objs    = stream(w.spec, seed, N)
    val info    = new StringBuilder
    val out     =
      if (!trace) endToEnd(w, objs, seconds, info)
      else {
        val taxi = if (w.spec == SpatialStreams.Taxi) objs else stream(SpatialStreams.Taxi, seed, N)
        traced(w, objs, taxi, opts("spans-out"), info)
      }
    val (checked, wrong) = (out.checked, out.wrong)
    val rt = ManagementFactory.getRuntimeMXBean
    println(info.toString.trim)
    println(
      s"""stamp: {"workload": "${w.name}", "seed": $seed, "n": $N, """ +
        s""""events_measured": ${out.events}, """ +
        s""""trace": $trace, "nproc": ${Runtime.getRuntime.availableProcessors}, """ +
        s""""jvm": "${rt.getVmName} ${System.getProperty("java.version")}", """ +
        s""""jvm_args": "${rt.getInputArguments.asScala.mkString(" ")}", "source": "${opts.getOrElse("source", "")}"}""")
    println(s"""{"correct": ${wrong == 0 && checked > 0}, "attempted": ${math.max(checked, 1)}, "failed": ${
      if (checked == 0) 1 else wrong}, "metrics": ${out.metrics.json}}""")
  }
}
