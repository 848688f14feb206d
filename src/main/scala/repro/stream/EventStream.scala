package repro.stream

import repro.core._

/** The stream substrate: turns a timestamp-ordered stream of spatial
  * objects into the interleaved `New` / `Grown` / `Expired` event sequence
  * of Section IV-C.
  *
  * For an object created at `t_c` with window length `|W|`:
  * the `New` event fires at `t_c`, the `Grown` event (current → past) at
  * `t_c + |W|`, and the `Expired` event at `t_c + 2|W|`. Pending transitions
  * are released before any arrival with an equal-or-later timestamp, so
  * every algorithm observes windows `W_c = (t−|W|, t]`,
  * `W_p = (t−2|W|, t−|W|]` exactly. At equal firing times, `Expired`
  * precedes `Grown` precedes `New`; events of one kind come out in arrival
  * order, making the sequence fully deterministic.
  *
  * Because arrivals are in non-decreasing `t` order, both due times are
  * monotone in arrival order. The sequence is therefore a three-way merge:
  * the input for `New`, and a Grown and an Expired cursor over a ring buffer
  * of the arrivals still inside `W_c ∪ W_p`. No heap, and no allocation per
  * event beyond the [[Event]] itself.
  */
object EventStream {

  /** Lazily interleave transitions with arrivals.
    *
    * @param objs      arrivals in non-decreasing `t` order
    * @param windowMillis window length `|W|`
    * @param drainTail whether to emit the Grown/Expired events that fall
    *                  after the last arrival (true = windows slide to empty)
    * @throws IllegalArgumentException from `next()` when the arrival due
    *         next has a `t` below its predecessor's, a non-finite `x` or
    *         `y`, or a weight that is not finite and positive
    */
  def fromObjects(objs: Iterable[SpatialObj], windowMillis: Long,
                  drainTail: Boolean = true): Iterator[Event] = {
    require(windowMillis > 0, s"window must be positive, got $windowMillis")
    new Merge(objs.iterator, windowMillis, drainTail)
  }

  private final class Merge(in: Iterator[SpatialObj], w: Long, drainTail: Boolean)
      extends Iterator[Event] {
    // Arrival number k sits at ring(k & mask) while expired <= k < arrived;
    // arrivals below `grown` have had their Grown event, below `expired`
    // their Expired event. A Grown event is due strictly before its own
    // Expired event, so expired <= grown <= arrived.
    private var ring     = new Array[SpatialObj](16)
    private var expired  = 0L
    private var grown    = 0L
    private var arrived  = 0L
    private var upcoming = if (in.hasNext) in.next() else null
    private var previous: SpatialObj = null

    private def at(k: Long): SpatialObj = ring((k & (ring.length - 1)).toInt)

    def hasNext: Boolean = upcoming != null || (drainTail && expired < arrived)

    def next(): Event = {
      val a = upcoming
      if (expired < arrived && {
            val due = at(expired).t + 2 * w
            (grown == arrived || due <= at(grown).t + w) && (a == null || due <= a.t)
          }) {
        val slot = (expired & (ring.length - 1)).toInt
        val o    = ring(slot)
        ring(slot) = null
        expired += 1
        Event(o, EventKind.Expired, o.t + 2 * w)
      } else if (grown < arrived && (a == null || at(grown).t + w <= a.t)) {
        val o = at(grown)
        grown += 1
        Event(o, EventKind.Grown, o.t + w)
      } else if (a != null) {
        // A NaN coordinate falls out of every sweep's binary search, and a
        // weight <= 0 breaks the static bound U_s as an upper bound.
        if (!java.lang.Double.isFinite(a.x) || !java.lang.Double.isFinite(a.y) ||
            !(a.w > 0 && a.w < Double.PositiveInfinity))
          throw new IllegalArgumentException(
            s"invalid arrival: object ${a.id} has x=${a.x}, y=${a.y}, w=${a.w} " +
              "(coordinates must be finite, the weight finite and positive)")
        if (previous != null && a.t < previous.t)
          throw new IllegalArgumentException(
            s"arrivals out of order: object ${a.id} at t=${a.t} " +
              s"follows object ${previous.id} at t=${previous.t}")
        if (arrived - expired == ring.length) grow()
        ring((arrived & (ring.length - 1)).toInt) = a
        arrived += 1
        previous = a
        upcoming = if (in.hasNext) in.next() else null
        Event(a, EventKind.New, a.t)
      } else throw new NoSuchElementException("event stream exhausted")
    }

    /** Doubles the ring, keeping every live arrival at its new masked slot. */
    private def grow(): Unit = {
      val bigger = new Array[SpatialObj](2 * ring.length)
      var k = expired
      while (k < arrived) {
        bigger((k & (bigger.length - 1)).toInt) = at(k)
        k += 1
      }
      ring = bigger
    }
  }
}
