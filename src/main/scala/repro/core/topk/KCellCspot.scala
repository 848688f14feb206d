package repro.core.topk

import scala.collection.mutable
import repro.core._

/** CCS-KSURGE (Algorithm 4): continuous top-k bursty point detection.
  *
  * The top-k problem is reduced to `k` CSPOT problems (Section VI): the i-th
  * problem sees only the rectangle objects whose *level* is ≥ i, where the
  * level of a rect is the order of the first selected point it covers (k if
  * it covers none). We materialise each problem as its own lazily-maintained
  * [[CellCspot]] layer, so all of Algorithm 2's sharing (upper bounds,
  * candidate points, lazy search) applies per layer. A level change is one
  * [[CellCspot.move]] per layer whose view changes, between `Out` and the
  * rect's window `w` — the computation-sharing scheme of Section VI-B:
  *  - a rect that starts covering `p[i]` is pinned to level i and moves
  *    `w`→Out in layers i+1..oldLevel;
  *  - a rect that stops covering `p[i]` is released to level k and moves
  *    Out→`w` in layers i+1..k;
  *  - a cell untouched by any of this keeps its bounds and candidates in
  *    every layer.
  * Each layer owns the window membership of the rects visible to it, and
  * sees the events of exactly those rects.
  */
final class KCellCspot(val cfg: SurgeConfig, val k: Int) {
  import EventKind._
  require(k >= 1)

  // Past rects, event-driven as in CellCspot: the window a level change
  // moves a rect out of or into.
  private val pastIds = mutable.HashSet.empty[Long]
  private val layers = Array.fill(k)(new CellCspot(cfg, BoundMode.Full))
  private val objs   = mutable.HashMap.empty[Long, SpatialObj]
  private val lvl    = mutable.HashMap.empty[Long, Int]
  // coverIds(i) = ids currently pinned at level i by step i's selection
  private val coverIds = Array.fill(k + 1)(mutable.HashSet.empty[Long])
  private val points   = Array.fill[Option[BurstyPoint]](k + 1)(None)

  var now: Long = Long.MinValue

  /** Total SL-CSPOT invocations across all layers (cost accounting). */
  def searches: Long = layers.map(_.stats.searches).sum

  /** Process one event and return the current top-k bursty points
    * (`None` entries when fewer than i covered points exist).
    */
  def onEvent(e: Event): IndexedSeq[Option[BurstyPoint]] = {
    now = e.at
    val o = e.obj
    e.kind match {
      case New =>
        objs(o.id) = o
        lvl(o.id) = k
        layers.foreach(_.process(e))
      case Grown =>
        val l = lvl(o.id)
        pastIds += o.id
        (0 until l).foreach(i => layers(i).process(e))
      case Expired =>
        val l = lvl.remove(o.id).getOrElse(k)
        objs.remove(o.id)
        coverIds(l).remove(o.id)
        (0 until l).foreach(i => layers(i).process(e))
        pastIds -= o.id
    }

    var i = 1
    while (i <= k) {
      val res = layers(i - 1).query()
      points(i) = res
      val newCover: Set[Long] = res match {
        case Some(bp) =>
          layers(i - 1).rectsCovering(bp.x, bp.y).map(_.id).toSet
        case None => Set.empty
      }
      // Release rects pinned at i that no longer cover p[i] → level k,
      // re-inserting them into layers i+1..k. Guard on `lvl == i`: an
      // earlier step of this very event may have already re-pinned the rect
      // to a lower level (it covers that step's new point), in which case
      // the stale coverIds entry must not resurrect it.
      coverIds(i).toArray.foreach { id =>
        if (!newCover.contains(id) && objs.contains(id) && lvl(id) == i) setLevel(id, k)
      }
      // Pin rects (level > i) now covering p[i] → level i, removing them
      // from layers i+1..oldLevel.
      newCover.foreach { id =>
        if (lvl(id) > i) setLevel(id, i)
      }
      coverIds(i).clear()
      coverIds(i) ++= newCover.filter(id => lvl(id) == i)
      i += 1
    }
    (1 to k).map(points(_))
  }

  /** Current top-k without processing an event. */
  def current: IndexedSeq[Option[BurstyPoint]] = (1 to k).map(points(_))

  private def setLevel(id: Long, to: Int): Unit = {
    val from = lvl(id)
    if (from == to) return
    val o = objs(id)
    val w = if (pastIds.contains(id)) Win.Past else Win.Cur
    lvl(id) = to
    if (to > from) {
      // becoming visible to layers from+1 .. to
      var j = from + 1
      while (j <= to) { layers(j - 1).move(o, Win.Out, w); j += 1 }
    } else {
      // becoming invisible to layers to+1 .. from
      var j = to + 1
      while (j <= from) { layers(j - 1).move(o, w, Win.Out); j += 1 }
    }
  }
}
