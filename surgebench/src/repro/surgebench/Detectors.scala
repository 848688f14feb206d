package repro.surgebench

import repro.core._
import repro.core.topk.KCellCspot

/** One detector under a workload's reporting policy, as the replay loop
  * drives it. Reports are returned untyped so that one loop serves every
  * detector; [[Reference.check]] knows each report's shape.
  */
abstract class Det {
  /** Feeds one event while the windows fill (before the first `Expired`). */
  def fill(e: Event): Unit

  /** Called once the windows are full: produces the first report. */
  def endFill(): Unit

  /** Feeds one event and returns the report due after it, or null. */
  def feed(e: Event): AnyRef

  /** [[feed]] with one child span of `par` per call into the detector. */
  def feedTraced(e: Event, sp: Spans, par: Int, id: Long): AnyRef

  /** SL-CSPOT searches run so far (0 for detectors that never sweep). */
  def searches: Long

  /** Rects those searches swept (0 where the detector does not expose it). */
  def sweptRects: Long = 0L
}

/** CCS (`BoundMode.Full`). With `pollMillis == 0` it reports after every
  * event through `onEvent`; otherwise it calls `process` per event and
  * `query` once per `pollMillis` of stream time.
  */
final class CcsDet(cfg: SurgeConfig, pollMillis: Long) extends Det {
  val ccs = new CellCspot(cfg, BoundMode.Full)
  private var slot = Long.MinValue
  /** Events whose report ran at least one search (traced feeds only). */
  var eventsWithSearch = 0L

  def fill(e: Event): Unit = ccs.process(e)
  def endFill(): Unit = { ccs.query(); if (pollMillis > 0) slot = ccs.now / pollMillis }

  private def due(e: Event): Boolean =
    pollMillis == 0 || { val s = e.at / pollMillis; val d = s != slot; slot = s; d }

  def feed(e: Event): AnyRef =
    if (pollMillis == 0) ccs.onEvent(e)
    else { ccs.process(e); if (due(e)) ccs.query() else null }

  def feedTraced(e: Event, sp: Spans, par: Int, id: Long): AnyRef = {
    val p = sp.begin(Spans.CellCspotProcess, par, id)
    ccs.process(e)
    sp.end(p)
    if (!due(e)) null
    else {
      val before = ccs.stats.searches
      val q = sp.begin(Spans.CellCspotQuery, par, id)
      val r = ccs.query()
      sp.end(q)
      if (ccs.stats.searches != before) eventsWithSearch += 1
      r
    }
  }

  def searches: Long = ccs.stats.searches
  override def sweptRects: Long = ccs.stats.sweptRects
}

/** GAPS: `process` then `top` after every event. */
final class GapsDet(cfg: SurgeConfig) extends Det {
  val gaps = new GapSurge(cfg)

  def fill(e: Event): Unit = gaps.process(e)
  def endFill(): Unit = gaps.top
  def feed(e: Event): AnyRef = gaps.onEvent(e)

  def feedTraced(e: Event, sp: Spans, par: Int, id: Long): AnyRef = {
    val p = sp.begin(Spans.GapSurgeProcess, par, id)
    gaps.process(e)
    sp.end(p)
    val t = sp.begin(Spans.GapSurgeTop, par, id)
    val r = gaps.top
    sp.end(t)
    r
  }

  def searches: Long = 0L
}

/** kCCS: `onEvent` (which reports the top-k) after every event. It has no
  * process-only entry point, so it reports while the windows fill too.
  */
final class KccsDet(cfg: SurgeConfig, k: Int) extends Det {
  val kccs = new KCellCspot(cfg, k)

  def fill(e: Event): Unit = kccs.onEvent(e)
  def endFill(): Unit = ()
  def feed(e: Event): AnyRef = kccs.onEvent(e)

  def feedTraced(e: Event, sp: Spans, par: Int, id: Long): AnyRef = {
    val s = sp.begin(Spans.KCellCspotEvent, par, id)
    val r = kccs.onEvent(e)
    sp.end(s)
    r
  }

  def searches: Long = kccs.searches
}
