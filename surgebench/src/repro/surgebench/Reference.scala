package repro.surgebench

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import repro.core._
import repro.exp.Tables
import repro.stream.EventStream

/** Up to `capacity` reports sampled during a replay, at least `every`
  * events apart and starting `every` events after event `start`, by the
  * index of the event after which each was made. Preallocated so that
  * sampling does not allocate.
  */
final class Samples(capacity: Int, every: Long, start: Long) {
  val index  = new Array[Long](capacity)
  val report = new Array[AnyRef](capacity)
  var size   = 0
  private var next = start + every

  def full: Boolean = size == capacity

  /** Keeps report `r` (null = none due) of event `i` if a sample is due. */
  def offer(i: Long, r: AnyRef): Boolean =
    if (r == null || i < next || size == capacity) false
    else { index(size) = i; report(size) = r; size += 1; next = i + every; true }
}

object Samples {
  val none = new Samples(0, 1L, 0L)
}

/** Output checks, recomputed from the live objects without the detectors'
  * incremental state.
  *
  *  - CCS, and each kCCS point over the rects not covering earlier points:
  *    the reported score equals [[BruteForce.scoreAt]] at the reported
  *    point, and is at least the snapshot optimum — the best per-cell
  *    [[SweepLine.burstyPoint]] over the grid of `b×a` cells.
  *  - GAPS: the reported cell's score equals its score recomputed from the
  *    live objects, and no cell's recomputed score exceeds it.
  */
object Reference {

  /** Relative tolerance: the detectors accumulate `+=`/`−=` rounding. */
  private def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-7 * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  private def pack(i: Long, j: Long): Long = (i << 32) ^ (j & 0xffffffffL)

  /** The snapshot optimum of `rects` (timestamps encode window membership
    * at `now`). Cells are swept in descending order of their static bound,
    * the current-window weight overlapping the cell, which no point of the
    * cell can exceed; the walk stops at the first bound not above the best
    * score found.
    */
  def optimum(rects: IndexedSeq[SpatialObj], now: Long, cfg: SurgeConfig,
              sp: Spans, par: Int, id: Long): Double = {
    val members = mutable.LongMap.empty[ArrayBuffer[SpatialObj]]
    val bound   = mutable.LongMap.empty[Double]
    rects.foreach { o =>
      val d  = if (Win.of(o.t, now, cfg.windowMillis) == Win.Cur) cfg.delta(o.w) else 0.0
      val i1 = math.floor((o.x + cfg.rectW) / cfg.rectW).toLong
      val j1 = math.floor((o.y + cfg.rectH) / cfg.rectH).toLong
      var i  = math.floor(o.x / cfg.rectW).toLong
      while (i <= i1) {
        var j = math.floor(o.y / cfg.rectH).toLong
        while (j <= j1) {
          val key = pack(i, j)
          members.getOrElseUpdate(key, ArrayBuffer.empty) += o
          bound(key) = bound.getOrElse(key, 0.0) + d
          j += 1
        }
        i += 1
      }
    }
    val order = bound.toArray.sortBy(-_._2)
    var best  = 0.0
    var c     = 0
    while (c < order.length && order(c)._2 > best) {
      val key = order(c)._1
      val x0  = (key >> 32) * cfg.rectW
      val y0  = key.toInt.toLong * cfg.rectH
      val box = Box(x0, y0, x0 + cfg.rectW, y0 + cfg.rectH)
      val s   = if (sp == null) -1 else sp.begin(Spans.SweepLineSweep, par, id)
      val res = SweepLine.burstyPoint(members(key), box, now, cfg)
      if (sp != null) { sp.end(s); sweptRects += res.rectCount }
      res.point.foreach(p => best = math.max(best, p.score))
      c += 1
    }
    best
  }

  /** Rects handed to traced sweeps so far. */
  var sweptRects = 0L

  private def checkPoint(r: Option[BurstyPoint], rects: IndexedSeq[SpatialObj], now: Long,
                         cfg: SurgeConfig, sp: Spans, par: Int, id: Long): Boolean = {
    val opt = optimum(rects, now, cfg, sp, par, id)
    r match {
      case None     => close(opt, 0.0)
      case Some(bp) =>
        close(BruteForce.scoreAt(rects, now, cfg, bp.x, bp.y).score, bp.score) &&
          (bp.score >= opt || close(bp.score, opt))
    }
  }

  private def checkCells(r: Option[CellResult], rects: IndexedSeq[SpatialObj], now: Long,
                         cfg: SurgeConfig): Boolean = {
    val fc = mutable.LongMap.empty[Double]
    val fp = mutable.LongMap.empty[Double]
    rects.foreach { o =>
      val key = pack(math.floor(o.x / cfg.rectW).toLong, math.floor(o.y / cfg.rectH).toLong)
      val d   = cfg.delta(o.w)
      if (Win.of(o.t, now, cfg.windowMillis) == Win.Cur) fc(key) = fc.getOrElse(key, 0.0) + d
      else fp(key) = fp.getOrElse(key, 0.0) + d
    }
    def score(key: Long) = cfg.burst(fc.getOrElse(key, 0.0), fp.getOrElse(key, 0.0))
    val best = (fc.keysIterator ++ fp.keysIterator).map(score).maxOption.getOrElse(0.0)
    r match {
      case None    => rects.isEmpty
      case Some(c) =>
        close(score(pack(c.key._1, c.key._2)), c.score) && (c.score >= best || close(c.score, best))
    }
  }

  /** Checks one report of the given shape against the live objects. */
  def check(report: AnyRef, rects: IndexedSeq[SpatialObj], now: Long, cfg: SurgeConfig,
            sp: Spans, par: Int, id: Long): Boolean = report match {
    case Some(c: CellResult) => checkCells(Some(c), rects, now, cfg)
    case r: Option[_]        => checkPoint(r.asInstanceOf[Option[BurstyPoint]], rects, now, cfg, sp, par, id)
    case ks: IndexedSeq[_] =>
      var rest = rects
      ks.forall { k =>
        val r  = k.asInstanceOf[Option[BurstyPoint]]
        val ok = checkPoint(r, rest, now, cfg, sp, par, id)
        r.foreach(bp => rest = rest.filterNot(o => cfg.rectBox(o).contains(bp.x, bp.y)))
        ok
      }
  }

  /** Replays the stream into a [[Tables.LiveSet]] and checks every sample
    * against the live objects right after its event. Returns the number of
    * wrong reports.
    */
  def verify(objs: IndexedSeq[SpatialObj], cfg: SurgeConfig, samples: Samples, sp: Spans): Int = {
    val live  = new Tables.LiveSet(cfg.windowMillis)
    val it    = EventStream.fromObjects(objs, cfg.windowMillis, drainTail = false)
    var wrong = 0
    var i     = 0L
    var s     = 0
    while (s < samples.size) {
      val e = it.next()
      live(e)
      while (s < samples.size && samples.index(s) == i) {
        val par = if (sp == null) -1 else sp.begin(Spans.Check, -1, i)
        if (!check(samples.report(s), live.objectsAt(e.at), e.at, cfg, sp, par, i)) wrong += 1
        if (sp != null) sp.end(par)
        s += 1
      }
      i += 1
    }
    wrong
  }
}
