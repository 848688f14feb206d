package repro.core

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Upper-bound discipline of a [[CellCspot]] instance (Section VII-A):
  * `Full` = CCS (static Eqn 2 + dynamic Eqn 3 bounds, candidate reuse),
  * `StaticOnly` = B-CCS (static bound only, candidate reuse),
  * `NoBounds` = Base (search every affected cell on every event).
  */
sealed abstract class BoundMode
object BoundMode {
  case object Full       extends BoundMode
  case object StaticOnly extends BoundMode
  case object NoBounds   extends BoundMode
}

/** Search-cost counters for Table II and the runtime tables. */
final class CspotStats {
  var messages: Long = 0L
  var messagesWithSearch: Long = 0L
  var searches: Long = 0L
  var sweptRects: Long = 0L

  def reset(): Unit = { messages = 0; messagesWithSearch = 0; searches = 0; sweptRects = 0 }
  def searchRatio: Double =
    if (messages == 0) 0.0 else messagesWithSearch.toDouble / messages
}

/** Cell-CSPOT (Algorithm 2): exact continuous bursty-point detection.
  *
  * A grid of `b×a` cells (Definition 6) partitions the space. Each non-empty
  * cell keeps:
  *  - the rectangle objects overlapping it across `W_c ∪ W_p` (`c.G`),
  *  - the static upper bound `U_s` of Eqn 2, maintained incrementally,
  *  - the dynamic upper bound `U_d` of Eqn 3 (+∞ until the first search),
  *  - a candidate point (the last SL-CSPOT result) whose per-window scores
  *    are tracked incrementally and whose validity follows Lemma 4.
  *
  * An [[IndexedMaxHeap]] orders cells by `U(c) = min(U_s, U_d)`. An event
  * updates the ≤4 affected cells in O(1) each plus one in-place heap update;
  * a query walks cells in descending bound order, re-sweeping only cells
  * whose candidate is invalid, and stops as soon as no bound exceeds the
  * best candidate score found — the lazy update strategy of Section IV-C1.
  *
  * Exactness note: whenever a candidate stays valid under Lemma 4, its
  * tracked score gains exactly the increment applied to `U_d`, so for valid
  * candidates `U(c) = S(c.p)` and the first valid heap top is the answer.
  */
final class CellCspot(val cfg: SurgeConfig, val mode: BoundMode = BoundMode.Full,
                      externalPast: Option[Long => Boolean] = None) {
  import EventKind._

  private val grid    = new Grid(cfg.rectW, cfg.rectH)
  private val cells   = mutable.LongMap.empty[Cell]
  private val heap    = new IndexedMaxHeap[Cell]
  private val overlap = new Array[Long](Grid.MaxOverlap) // keys of one event's cells
  private val stash   = ArrayBuffer.empty[Cell]          // cells popped by one query

  // Window membership is *event-driven*: an object is Past from the moment
  // its Grown event is processed until its Expired event removes it. This
  // keeps searches consistent with the incrementally-tracked bounds and
  // candidates when several events share one firing timestamp. The top-k
  // orchestrator shares one membership oracle across its layers via
  // `externalPast` (layers never see events of rects invisible to them).
  private val pastIds = mutable.HashSet.empty[Long]
  private def isPast(id: Long): Boolean = externalPast match {
    case Some(f) => f(id)
    case None    => pastIds.contains(id)
  }
  private val winOf: SpatialObj => Win =
    o => if (isPast(o.id)) Win.Past else Win.Cur

  /** Wall-clock of the last processed event. */
  var now: Long = Long.MinValue

  val stats = new CspotStats
  private var searchedThisMessage = false

  private final class Cell(val key: Long) extends HeapNode {
    val rects = mutable.LinkedHashMap.empty[Long, SpatialObj]
    var us: Double = 0.0
    var ud: Double = Double.PositiveInfinity
    // The candidate point (the last SL-CSPOT result) and its tracked
    // per-window scores; `hasCand` is false until the first search.
    var hasCand: Boolean = false
    var cx: Double = 0.0
    var cy: Double = 0.0
    var cfc: Double = 0.0
    var cfp: Double = 0.0
    var cscore: Double = 0.0
    var candValid: Boolean = false

    def bound: Double = mode match {
      case BoundMode.Full       => math.min(math.max(us, 0.0), ud)
      case BoundMode.StaticOnly => math.max(us, 0.0)
      case BoundMode.NoBounds   => if (hasCand) cscore else 0.0
    }

    def setCand(p: BurstyPoint): Unit = {
      hasCand = true
      cx = p.x; cy = p.y; cfc = p.fc; cfp = p.fp; cscore = p.score
    }

    /** Moves the candidate's scores by `(dfc, dfp)` if `obox` covers it and
      * returns whether it did.
      */
    def shiftCand(obox: Box, dfc: Double, dfp: Double): Boolean = {
      val covered = obox.contains(cx, cy)
      if (covered) { cfc += dfc; cfp += dfp; cscore = cfg.burst(cfc, cfp) }
      covered
    }

    def candidate: BurstyPoint = BurstyPoint(cx, cy, cfc, cfp, cscore)
  }

  /** Number of live (non-empty) cells. */
  def cellCount: Int = cells.size

  /** All live rects covering `(px, py)` — used by the top-k extension to
    * compute cover sets through the cell index instead of a full scan.
    */
  def rectsCovering(px: Double, py: Double): Iterator[SpatialObj] =
    cells.get(grid.keyOf(px, py)) match {
      case None    => Iterator.empty
      case Some(c) => c.rects.valuesIterator.filter(o => cfg.rectBox(o).contains(px, py))
    }

  /** Process one event and report the current bursty point (Algorithm 2). */
  def onEvent(e: Event): Option[BurstyPoint] = {
    stats.messages += 1
    searchedThisMessage = false
    process(e)
    val r = query()
    if (searchedThisMessage) stats.messagesWithSearch += 1
    r
  }

  /** Apply an event's bound/candidate updates without querying — used when a
    * caller samples queries sparsely (the structures stay exact; searches
    * only happen inside `query()` except in `NoBounds` mode).
    */
  def process(e: Event): Unit = {
    now = e.at
    val o    = e.obj
    val obox = cfg.rectBox(o)
    val d    = cfg.delta(o.w)
    if (externalPast.isEmpty) e.kind match {
      case Grown   => pastIds += o.id
      case Expired => pastIds -= o.id
      case New     => ()
    }
    val n = grid.cellsOverlapping(obox, overlap)
    var k = 0
    while (k < n) {
      val key = overlap(k)
      val c   = if (e.kind == New) cellAt(key) else cells.getOrNull(key)
      if (c != null) {
        e.kind match {
          case New     => c.rects.update(o.id, o); c.us += d; c.ud += d
          case Grown   => c.us -= d // Eqn 3: dynamic bound unchanged
          case Expired => c.rects.remove(o.id); c.ud += cfg.alpha * d
        }
        if (c.hasCand) {
          val pre     = c.cfc - c.cfp
          val covered = e.kind match {
            case New     => c.shiftCand(obox, d, 0.0)
            case Grown   => c.shiftCand(obox, -d, d)
            case Expired => c.shiftCand(obox, 0.0, -d)
          }
          if (c.candValid) {
            // Lemma 4 (conservative form, evaluated on pre-event scores).
            c.candValid = e.kind match {
              case New | Expired => covered && pre >= -1e-9
              case Grown         => !covered
            }
          }
        }
        finishCellUpdate(c)
      }
      k += 1
    }
  }

  /** Synthetic insert/remove used by the top-k extension (Section VI-B):
    * rectangle `o` becomes (in)visible to this instance while the clock
    * stands still. Bound and validity maintenance mirror the Lemma 3/4 case
    * analysis: inserting a current-window rect behaves like `New`, removing
    * a past-window rect behaves like `Expired`, and the two score-decreasing
    * cases leave the dynamic bound untouched.
    */
  def synthetic(o: SpatialObj, insert: Boolean): Unit = {
    val isCur = !isPast(o.id)
    val obox  = cfg.rectBox(o)
    val d     = cfg.delta(o.w)
    val n     = grid.cellsOverlapping(obox, overlap)
    var k     = 0
    while (k < n) {
      val key = overlap(k)
      val c   = if (insert) cellAt(key) else cells.getOrNull(key)
      if (c != null) {
        if (insert) {
          c.rects.update(o.id, o)
          if (isCur) { c.us += d; c.ud += d }
        } else {
          c.rects.remove(o.id)
          if (isCur) c.us -= d
          else c.ud += cfg.alpha * d
        }
        if (c.hasCand) {
          val pre     = c.cfc - c.cfp
          val covered = (insert, isCur) match {
            case (true, true)   => c.shiftCand(obox, d, 0.0)
            case (true, false)  => c.shiftCand(obox, 0.0, d)
            case (false, true)  => c.shiftCand(obox, -d, 0.0)
            case (false, false) => c.shiftCand(obox, 0.0, -d)
          }
          if (c.candValid) {
            c.candValid = (insert, isCur) match {
              case (true, true)   => covered && pre >= -1e-9 // like New
              case (false, false) => covered && pre >= -1e-9 // like Expired
              case _              => !covered                // score-decreasing cases
            }
          }
        }
        finishCellUpdate(c)
      }
      k += 1
    }
  }

  /** The cell at `key`, created empty if absent. */
  private def cellAt(key: Long): Cell = {
    var c = cells.getOrNull(key)
    if (c == null) { c = new Cell(key); cells.update(key, c) }
    c
  }

  private def finishCellUpdate(c: Cell): Unit = {
    if (c.rects.isEmpty) {
      cells.remove(c.key)
      heap.remove(c)
    } else {
      if (mode == BoundMode.NoBounds) searchCell(c)
      heap.update(c, c.bound)
    }
  }

  private def searchCell(c: Cell): Unit = {
    val box = grid.cellBox(c.key)
    val res = SweepLine.burstyPoint(c.rects.values, box, cfg, winOf)
    stats.searches += 1
    stats.sweptRects += res.rectCount
    searchedThisMessage = true
    c.setCand(res.point.getOrElse(BurstyPoint(box.x0, box.y0, 0.0, 0.0, 0.0)))
    c.candValid = true
    if (mode == BoundMode.Full) c.ud = c.cscore
  }

  /** Current bursty point (the lazy-update search loop of Algorithm 2).
    * Idempotent; may be called as often or as rarely as the caller likes.
    */
  def query(): Option[BurstyPoint] = {
    if (mode == BoundMode.NoBounds) {
      val c = heap.peekMax
      return if (c == null) None else Some(c.candidate)
    }
    var best: Cell = null
    var done = false
    while (!done) {
      val c = heap.peekMax
      if (c == null || (best != null && c.priority <= best.cscore + 1e-9)) done = true
      else if (!c.candValid) {
        searchCell(c)
        heap.update(c, c.bound)
      } else {
        if (best == null || c.cscore > best.cscore) best = c
        heap.popMax()
        stash += c
      }
    }
    var k = 0
    while (k < stash.length) { val c = stash(k); heap.update(c, c.bound); k += 1 }
    stash.clear()
    if (best == null) None else Some(best.candidate)
  }
}
