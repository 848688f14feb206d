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
  */
final class AG2(val cfg: SurgeConfig, val cellFactor: Double = 10.0) {
  import EventKind._

  private val grid    = new Grid(cfg.rectW * cellFactor, cfg.rectH * cellFactor)
  private val cells   = mutable.LongMap.empty[mutable.LinkedHashMap[Long, SpatialObj]]
  private val rects   = mutable.LongMap.empty[Rect]
  private val heap    = new IndexedMaxHeap[Rect]
  private val overlap = new Array[Long](Grid.MaxOverlap) // keys of one rect's cells

  /** A live rectangle object: its graph edges, its cached candidate, and
    * its upper bound as its heap priority.
    */
  private final class Rect(val obj: SpatialObj) extends HeapNode {
    val nbrs = mutable.HashSet.empty[Long]
    var cand: BurstyPoint = _
    var valid: Boolean = false

    def setBound(u: Double): Unit = { valid = false; heap.update(this, u) }
  }

  private val candidates = new Candidates[Rect] {
    def isValid(r: Rect): Boolean = r.valid
    def revalidate(r: Rect): Unit = search(r)
    def score(r: Rect): Double = r.cand.score
  }

  var now: Long = Long.MinValue
  val stats = new CspotStats
  private var searchedThisMessage = false

  // Event-driven window membership (see CellCspot): Past from the processed
  // Grown event until the Expired event removes the rect.
  private val pastIds = mutable.HashSet.empty[Long]
  private val winOf: SpatialObj => Win =
    o => if (pastIds.contains(o.id)) Win.Past else Win.Cur

  /** Current number of graph edges (space-cost accounting, Section II). */
  def edgeCount: Long = rects.valuesIterator.map(_.nbrs.size.toLong).sum / 2

  def onEvent(e: Event): Option[BurstyPoint] = {
    stats.messages += 1
    searchedThisMessage = false
    process(e)
    val r = query()
    if (searchedThisMessage) stats.messagesWithSearch += 1
    r
  }

  def process(e: Event): Unit = {
    now = e.at
    val o   = e.obj
    val d   = cfg.delta(o.w)
    val box = cfg.rectBox(o)
    e.kind match {
      case New =>
        val r = new Rect(o)
        rects(o.id) = r
        val n = grid.cellsOverlapping(box, overlap)
        // Build the overlap edges through the cell lists.
        var k = 0
        while (k < n) {
          cells.get(overlap(k)).foreach(_.valuesIterator.foreach { m =>
            if (m.id != o.id && cfg.rectBox(m).intersectsClosed(box)) r.nbrs += m.id
          })
          k += 1
        }
        var selfUb = d
        r.nbrs.foreach { nid =>
          val m = rects(nid)
          m.nbrs += o.id
          if (!pastIds.contains(nid)) selfUb += cfg.delta(m.obj.w)
          m.setBound(m.priority + d)
        }
        k = 0
        while (k < n) {
          cells.getOrElseUpdate(overlap(k), mutable.LinkedHashMap.empty).update(o.id, o)
          k += 1
        }
        r.setBound(selfUb)
      case Grown =>
        pastIds += o.id
        val r = rects(o.id)
        r.nbrs.foreach { nid => val m = rects(nid); m.setBound(m.priority - d) }
        r.setBound(r.priority - d)
      case Expired =>
        pastIds -= o.id
        val r = rects.remove(o.id).get
        // o was in the past window: its weight is no longer in any bound.
        r.nbrs.foreach { nid => val m = rects(nid); m.nbrs -= o.id; m.valid = false }
        val n = grid.cellsOverlapping(box, overlap)
        var k = 0
        while (k < n) {
          val key = overlap(k)
          cells.get(key).foreach { cl =>
            cl.remove(o.id)
            if (cl.isEmpty) cells.remove(key)
          }
          k += 1
        }
        heap.remove(r)
    }
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
    searchedThisMessage = true
    r.cand = res.point.getOrElse(BurstyPoint(o.x, o.y, 0.0, 0.0, 0.0))
    r.valid = true
  }
}
