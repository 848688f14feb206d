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
  * sees the events of exactly those rects: an event of a rect at level `l`
  * goes to layers `0 until l`, and a rect enters at level k on its move
  * from `Out` and leaves on its move to `Out`.
  */
final class KCellCspot(val cfg: SurgeConfig, val k: Int) {
  require(k >= 1)

  /** A live rect, its level, and whether it is Past (the window a level
    * change moves it out of or into; event-driven as in CellCspot).
    */
  private final class Entry(val obj: SpatialObj) {
    var level: Int = k
    var past: Boolean = false
  }

  private val layers  = Array.fill(k)(new CellCspot(cfg, BoundMode.Full))
  private val entries = mutable.LongMap.empty[Entry]
  // coverIds(i) = ids at level i < k, i.e. pinned by step i's selection
  private val coverIds = Array.fill(k)(mutable.HashSet.empty[Long])
  private val points   = Array.fill[Option[BurstyPoint]](k + 1)(None)

  /** Total SL-CSPOT invocations across all layers (cost accounting). */
  def searches: Long = layers.map(_.stats.searches).sum

  /** Process one event and return the current top-k bursty points
    * (`None` entries when fewer than i covered points exist).
    *
    * @throws IllegalArgumentException if the rect moves from `Out` while
    *   its id is already live
    */
  def onEvent(e: Event): IndexedSeq[Option[BurstyPoint]] = {
    val o  = e.obj
    val en = if (e.kind.from == Win.Out) enter(o) else entries(o.id)
    en.past = e.kind.to == Win.Past
    var j = 0
    while (j < en.level) { layers(j).process(e); j += 1 }
    if (e.kind.to == Win.Out) {
      entries.remove(o.id)
      if (en.level < k) coverIds(en.level) -= o.id
    }

    var i = 1
    while (i <= k) {
      val res = layers(i - 1).query()
      points(i) = res
      // Step k pins nothing: level k already means "visible to every layer".
      if (i < k) {
        val newCover: Set[Long] = res match {
          case Some(bp) => layers(i - 1).rectsCovering(bp.x, bp.y).map(_.id).toSet
          case None     => Set.empty
        }
        // Release rects pinned at i that no longer cover p[i] → level k,
        // re-inserting them into layers i+1..k.
        coverIds(i).toArray.foreach(id => if (!newCover.contains(id)) setLevel(entries(id), k))
        // Pin rects (level > i) now covering p[i] → level i, removing them
        // from layers i+1..oldLevel.
        newCover.foreach { id =>
          val c = entries(id)
          if (c.level > i) setLevel(c, i)
        }
      }
      i += 1
    }
    (1 to k).map(points(_))
  }

  /** Current top-k without processing an event. */
  def current: IndexedSeq[Option[BurstyPoint]] = (1 to k).map(points(_))

  private def enter(o: SpatialObj): Entry = {
    if (entries.contains(o.id)) throw new IllegalArgumentException(s"object id ${o.id} is already live")
    val en = new Entry(o)
    entries(o.id) = en
    en
  }

  /** Moves `en` to level `to`, keeping `coverIds` equal to the ids at each
    * level below k.
    */
  private def setLevel(en: Entry, to: Int): Unit = {
    val from = en.level
    val o    = en.obj
    val w    = if (en.past) Win.Past else Win.Cur
    if (from < k) coverIds(from) -= o.id
    if (to < k) coverIds(to) += o.id
    en.level = to
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
