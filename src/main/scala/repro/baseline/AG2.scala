package repro.baseline

import scala.collection.mutable
import repro.core._

/** Modified aG2 (Amagata & Hara, EDBT 2016), adapted to the SURGE burst
  * score per Appendix J of the paper.
  *
  * Index: a coarse grid whose cell size is a multiple of the query rectangle
  * (the paper's experiments use `10q`); each rectangle object is mapped to
  * the cells it overlaps. Per cell, a *graph* connects overlapping rectangle
  * objects — this is the structure with the `O(n²)` worst-case space the
  * paper criticises; we store it as adjacency sets. Each rectangle `g`
  * carries an upper bound on the burst score of any point inside `g`
  * (the current-window weight of `g` and all of its neighbours), and a
  * branch-and-bound loop searches rectangles in descending bound order,
  * invoking SL-CSPOT inside `g`'s own box (Appendix J replaces the original
  * sweep with SL-CSPOT) until no bound exceeds the best score found.
  * Cached per-rect candidates are conservatively invalidated by any
  * overlapping event.
  *
  * An event moves its rect `from` one window `to` another: the rect joins
  * the graph on a move from `Out` and leaves it on a move to `Out`, and in
  * between the rect's and each neighbour's bound grows by the move's
  * `Δf_c` ([[SurgeConfig.deltaFc]]) and its candidate is invalidated.
  */
final class AG2(val cfg: SurgeConfig, val cellFactor: Double = 10.0) {
  private val grid    = new Grid(cfg.rectW * cellFactor, cfg.rectH * cellFactor)
  private val cells   = mutable.LongMap.empty[mutable.LinkedHashMap[Long, SpatialObj]]
  private val rects   = mutable.LongMap.empty[Rect]
  private val heap    = new IndexedMaxHeap[Rect]
  private val overlap = new Array[Long](Grid.MaxOverlap) // keys of one rect's cells

  /** A live rectangle object: its graph edges, its window, its cached
    * candidate, and its upper bound as its heap priority.
    */
  private final class Rect(val obj: SpatialObj) extends HeapNode {
    val nbrs = mutable.HashSet.empty[Long]
    // Window membership is move-driven (see CellCspot): Past from the
    // rect's Grown event until its Expired event removes it.
    var past: Boolean = false
    var cand: BurstyPoint = _
    var valid: Boolean = false

    def setBound(u: Double): Unit = { valid = false; heap.update(this, u) }
  }

  private val candidates = new Candidates[Rect] {
    def isValid(r: Rect): Boolean = r.valid
    def revalidate(r: Rect): Unit = search(r)
    def score(r: Rect): Double = r.cand.score
  }

  val stats = new CspotStats

  private val winOf: SpatialObj => Win =
    o => if (rects(o.id).past) Win.Past else Win.Cur

  /** Current number of graph edges (space-cost accounting, Section II). */
  def edgeCount: Long = rects.valuesIterator.map(_.nbrs.size.toLong).sum / 2

  def onEvent(e: Event): Option[BurstyPoint] = { process(e); query() }

  /** Apply one event, the move of its rect `from` one window `to` another.
    *
    * @throws IllegalArgumentException if the rect moves from `Out` while
    *   its id is already live
    */
  def process(e: Event): Unit = {
    val o   = e.obj
    val dfc = cfg.deltaFc(o.w, e.kind.from, e.kind.to)
    val r   = if (e.kind.from == Win.Out) link(o) else rects(o.id)
    r.past = e.kind.to == Win.Past
    r.nbrs.foreach { nid => val m = rects(nid); m.setBound(m.priority + dfc) }
    if (e.kind.to == Win.Out) unlink(r) else r.setBound(r.priority + dfc)
  }

  /** Adds `o` to the graph, with the current-window weight of its
    * neighbours as its bound.
    */
  private def link(o: SpatialObj): Rect = {
    if (rects.contains(o.id)) throw new IllegalArgumentException(s"object id ${o.id} is already live")
    val r   = new Rect(o)
    val box = cfg.rectBox(o)
    val n   = grid.cellsOverlapping(box, overlap)
    var ub  = 0.0
    var k   = 0
    // Build the overlap edges through the cell lists.
    while (k < n) {
      val cl = cells.getOrElseUpdate(overlap(k), mutable.LinkedHashMap.empty)
      cl.valuesIterator.foreach { m =>
        if (cfg.rectBox(m).intersectsClosed(box) && r.nbrs.add(m.id)) {
          val mr = rects(m.id)
          mr.nbrs += o.id
          if (!mr.past) ub += cfg.delta(m.w)
        }
      }
      cl(o.id) = o
      k += 1
    }
    rects(o.id) = r
    r.setBound(ub)
    r
  }

  private def unlink(r: Rect): Unit = {
    val o = r.obj
    r.nbrs.foreach(nid => rects(nid).nbrs -= o.id)
    val n = grid.cellsOverlapping(cfg.rectBox(o), overlap)
    var k = 0
    while (k < n) {
      val key = overlap(k)
      cells.get(key).foreach { cl =>
        cl.remove(o.id)
        if (cl.isEmpty) cells.remove(key)
      }
      k += 1
    }
    rects.remove(o.id)
    heap.remove(r)
  }

  /** Branch-and-bound over per-rect upper bounds. Every covered point lies
    * inside some live rectangle, so the max over per-rect searches is the
    * global bursty point.
    */
  def query(): Option[BurstyPoint] = {
    val r = heap.bestValid(candidates)
    if (r == null) None else Some(r.cand)
  }

  private def search(r: Rect): Unit = {
    val o     = r.obj
    val group = (r.nbrs.iterator.map(nid => rects(nid).obj) ++ Iterator.single(o)).toIndexedSeq
    val res   = SweepLine.burstyPoint(group, cfg.rectBox(o), cfg, winOf)
    stats.searches += 1
    stats.sweptRects += res.rectCount
    r.cand = res.point.getOrElse(BurstyPoint(o.x, o.y, 0.0, 0.0, 0.0))
    r.valid = true
  }
}
