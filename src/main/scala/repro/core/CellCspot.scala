package repro.core

import scala.collection.mutable

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

/** Search-cost counters: SL-CSPOT invocations and the rects they swept.
  * Table II's per-event ratio is derived from `searches` by its driver.
  */
final class CspotStats {
  var searches: Long = 0L
  var sweptRects: Long = 0L
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
  * Every update is one [[move]] of a rect `from` one window `to` another
  * (an event, or a top-k level change), which shifts each covered point's
  * scores by `(Δf_c, Δf_p) = w/|W|·(to − from)` ([[SurgeConfig.deltaFc]]).
  * In each cell the rect overlaps:
  *  - `U_s += Δf_c`;
  *  - a *raising* move (`Δf_c ≥ 0 ∧ Δf_p ≤ 0`) adds `Δf_c − α·Δf_p` to
  *    `U_d`, which bounds any point's gain because `S` is the larger of
  *    `f_c − α·f_p` and `(1−α)·f_c`. Every other move has
  *    `Δf_c ≤ 0 ≤ Δf_p`, so it lowers every score (`S` rises with `f_c` and
  *    falls with `f_p`) and leaves `U_d` alone;
  *  - the candidate stays valid (Lemma 4) after a raising move only if the
  *    rect covers it and `f_c ≥ f_p` held before the move, and after any
  *    other move only if the rect misses it.
  *
  * Exactness note: a raising move cannot shrink `f_c − f_p`, so a covered
  * candidate with `f_c ≥ f_p` stays on the `f_c − α·f_p` branch of `S` and
  * gains exactly the increment applied to `U_d`. So for valid candidates
  * `U(c) = S(c.p)` and the first valid heap top is the answer.
  */
final class CellCspot(val cfg: SurgeConfig, val mode: BoundMode = BoundMode.Full) {
  private val grid    = new Grid(cfg.rectW, cfg.rectH)
  private val cells   = mutable.LongMap.empty[Cell]
  private val heap    = new IndexedMaxHeap[Cell]
  private val overlap = new Array[Long](Grid.MaxOverlap) // keys of one move's cells

  // Window membership is *move-driven*: an object is Past from the moment
  // it moves there (its Grown event) until it moves out (its Expired
  // event). This keeps searches consistent with the incrementally-tracked
  // bounds and candidates when several events share one firing timestamp.
  private val pastIds = mutable.HashSet.empty[Long]
  private val winOf: SpatialObj => Win =
    o => if (pastIds.contains(o.id)) Win.Past else Win.Cur

  /** Wall-clock of the last processed event. */
  var now: Long = Long.MinValue

  val stats = new CspotStats

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

    def candidate: BurstyPoint = BurstyPoint(cx, cy, cfc, cfp, cscore)
  }

  private val candidates = new Candidates[Cell] {
    def isValid(c: Cell): Boolean = c.candValid
    def revalidate(c: Cell): Unit = { searchCell(c); heap.update(c, c.bound) }
    def score(c: Cell): Double = c.cscore
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
  def onEvent(e: Event): Option[BurstyPoint] = { process(e); query() }

  /** Apply an event's bound/candidate updates without querying — used when a
    * caller samples queries sparsely (the structures stay exact; searches
    * only happen inside `query()` except in `NoBounds` mode).
    */
  def process(e: Event): Unit = {
    now = e.at
    move(e.obj, e.kind.from, e.kind.to)
  }

  /** Move rect `o` from window `from` to window `to` while the clock stands
    * still, applying the move rule of the class comment to every cell `o`
    * overlaps. Events are the moves Out→Cur, Cur→Past and Past→Out; the
    * top-k extension (Section VI-B) also moves rects in to Past and out
    * from Cur as their level changes.
    *
    * @throws IllegalArgumentException if `o.id` is already in a cell `o`
    *   moves into from `Out`, or already Past when `o` moves to `Past`
    */
  def move(o: SpatialObj, from: Win, to: Win): Unit = {
    val dfc = cfg.deltaFc(o.w, from, to)
    val dfp = cfg.deltaFp(o.w, from, to)
    val raising = dfc >= 0.0 && dfp <= 0.0
    if (from == Win.Past) pastIds -= o.id
    if (to == Win.Past && !pastIds.add(o.id)) throw duplicate(o)
    val obox = cfg.rectBox(o)
    val n    = grid.cellsOverlapping(obox, overlap)
    var k    = 0
    while (k < n) {
      val c = if (from == Win.Out) cellAt(overlap(k)) else cells.getOrNull(overlap(k))
      if (c != null) {
        if (from == Win.Out) { if (c.rects.put(o.id, o).isDefined) throw duplicate(o) }
        else if (to == Win.Out) c.rects.remove(o.id)
        c.us += dfc
        if (raising) c.ud += dfc - cfg.alpha * dfp
        if (c.hasCand) {
          val pre     = c.cfc - c.cfp
          val covered = obox.contains(c.cx, c.cy)
          if (covered) { c.cfc += dfc; c.cfp += dfp; c.cscore = cfg.burst(c.cfc, c.cfp) }
          if (c.candValid) c.candValid = if (raising) covered && pre >= -1e-9 else !covered
        }
        finishCellUpdate(c)
      }
      k += 1
    }
  }

  private def duplicate(o: SpatialObj) =
    new IllegalArgumentException(s"object id ${o.id} is already live")

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
    c.setCand(res.point.getOrElse(BurstyPoint(box.x0, box.y0, 0.0, 0.0, 0.0)))
    c.candValid = true
    if (mode == BoundMode.Full) c.ud = c.cscore
  }

  /** Current bursty point (the lazy-update search loop of Algorithm 2).
    * Idempotent; may be called as often or as rarely as the caller likes.
    */
  def query(): Option[BurstyPoint] = {
    val c = if (mode == BoundMode.NoBounds) heap.peekMax else heap.bestValid(candidates)
    if (c == null) None else Some(c.candidate)
  }
}
