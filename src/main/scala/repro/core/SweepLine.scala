package repro.core

import java.util.Arrays

/** SL-CSPOT (Algorithm 1): exact bursty-point search on a snapshot.
  *
  * Given the rectangle objects alive in `W_c ∪ W_p` at time `now`, find a
  * point inside `box` maximising the burst score. The burst-score field is
  * piecewise constant over the disjoint regions induced by rectangle edges
  * (Theorem 2). With closed rectangles the candidate set must represent
  * every *face, edge and vertex* of that arrangement — not just
  * left-edge×top-edge corners: past-window rectangles contribute
  * negatively, so the maximum can sit strictly inside a face (sliding a
  * point onto an edge may acquire a past rect and lower its score), while
  * touching current rectangles make edge loci strictly better than both
  * adjacent faces. We therefore use, per axis, every clipped edge
  * coordinate plus the midpoint of each pair of consecutive coordinates;
  * coverage is axis-wise constant between consecutive edge coordinates, so
  * this hits every distinct score class. Points covered by nothing score 0
  * and every candidate scores ≥ 0, so they need no representative.
  *
  * The score linearises: `S = max(f_c − α·f_p, (1−α)·f_c)` (the first term
  * wins iff `f_c ≥ f_p`), so one segment tree over the candidate xs keeps
  * both column maxima under lazily added `(f_c, f_p)` tags. A horizontal
  * line sweeps the candidate ys top-down; a current (past) rect adds
  * `(Δ, 0)` (`(0, Δ)`) to its columns when the line reaches its top edge and
  * removes it once the line is strictly below its bottom edge; the row
  * maximum is read at the root. `O(n log n)` per invocation, against the
  * paper's `O(n²)` — the MaxRS plane sweep of Nandy & Bhattacharya (1995).
  *
  * Tie-break: rows go in descending y, and a row replaces the best point
  * only if its maximum beats the best score by more than `1e-12`; within a
  * row the leftmost column attaining the maximum wins. The point reports
  * the `f_c`/`f_p` summed at that leaf and `score = cfg.burst(f_c, f_p)`.
  * Stateless, so Spark executors may call it concurrently.
  */
object SweepLine {

  /** Result of one sweep: the best point (None iff no live rect intersects
    * `box`) and the number of rectangles actually swept (the paper's
    * `|c|` — used for search-cost accounting).
    */
  final case class SweepResult(point: Option[BurstyPoint], rectCount: Int)

  /** Wall-clock classification (snapshot semantics): windows derived from
    * `now` via [[Win.of]]. The continuous structures instead pass an explicit
    * event-driven classifier — see the other overload — because mid-batch
    * (several events sharing one firing timestamp) their incremental state
    * transitions membership at event-processing time, not wall-clock time.
    */
  def burstyPoint(all: Iterable[SpatialObj], box: Box, now: Long, cfg: SurgeConfig): SweepResult =
    burstyPoint(all, box, cfg, o => Win.of(o.t, now, cfg.windowMillis))

  def burstyPoint(all: Iterable[SpatialObj], box: Box, cfg: SurgeConfig,
                  winOf: SpatialObj => Win): SweepResult = {
    // Live rectangles intersecting the search box (closed), as columns.
    val rx    = new Array[Double](all.size)
    val ry    = new Array[Double](rx.length)
    val rd    = new Array[Double](rx.length)
    val isCur = new Array[Boolean](rx.length)
    var n     = 0
    all.foreach { o =>
      val w = winOf(o)
      if (w != Win.Out && o.x <= box.x1 && box.x0 <= o.x + cfg.rectW &&
          o.y <= box.y1 && box.y0 <= o.y + cfg.rectH) {
        rx(n) = o.x; ry(n) = o.y; rd(n) = cfg.delta(o.w); isCur(n) = w == Win.Cur
        n += 1
      }
    }
    if (n == 0) return SweepResult(None, 0)

    // Candidate xs and ys: clipped edges + midpoints (face/edge/vertex reps).
    val rawXs = new Array[Double](2 * n)
    val rawYs = new Array[Double](2 * n)
    var i = 0
    while (i < n) {
      rawXs(2 * i) = math.max(rx(i), box.x0)
      rawXs(2 * i + 1) = math.min(rx(i) + cfg.rectW, box.x1)
      rawYs(2 * i) = math.max(ry(i), box.y0)
      rawYs(2 * i + 1) = math.min(ry(i) + cfg.rectH, box.y1)
      i += 1
    }
    val xs = withMidpoints(rawXs)
    val ys = withMidpoints(rawYs)

    // Per rect: its columns [lo, hi), and the rows at which the descending
    // line reaches its top edge (enter) and passes below its bottom edge
    // (leave), bucketed per row as linked lists in ascending rect order.
    val lo      = new Array[Int](n)
    val hi      = new Array[Int](n)
    val enterAt = new Array[Int](ys.length)
    val leaveAt = new Array[Int](ys.length)
    val nextIn  = new Array[Int](n)
    val nextOut = new Array[Int](n)
    Arrays.fill(enterAt, -1)
    Arrays.fill(leaveAt, -1)
    i = n - 1
    while (i >= 0) {
      lo(i) = firstAbove(xs, rx(i), orEqual = true)
      hi(i) = firstAbove(xs, rx(i) + cfg.rectW, orEqual = false)
      val enter = firstAbove(ys, ry(i) + cfg.rectH, orEqual = false) - 1
      nextIn(i) = enterAt(enter); enterAt(enter) = i
      val leave = firstAbove(ys, ry(i), orEqual = true) - 1
      if (leave >= 0) { nextOut(i) = leaveAt(leave); leaveAt(leave) = i }
      i -= 1
    }

    val tree = new MaxTree(xs.length, cfg.alpha)
    def addRect(r: Int, d: Double): Unit =
      if (isCur(r)) tree.add(lo(r), hi(r), d, 0.0) else tree.add(lo(r), hi(r), 0.0, d)
    var best: BurstyPoint = null
    var yi = ys.length - 1
    while (yi >= 0) {
      var r = enterAt(yi)
      while (r >= 0) { addRect(r, rd(r)); r = nextIn(r) }
      r = leaveAt(yi)
      while (r >= 0) { addRect(r, -rd(r)); r = nextOut(r) }
      if (best == null || tree.max > best.score + 1e-12) {
        val j = tree.leftmostMax()
        best = BurstyPoint(xs(j), ys(yi), tree.fc, tree.fp, cfg.burst(tree.fc, tree.fp))
      }
      yi -= 1
    }
    SweepResult(Some(best), n)
  }

  /** Sorts `raw` in place; returns its distinct values, ascending, with the
    * midpoint of each consecutive pair interleaved.
    */
  private def withMidpoints(raw: Array[Double]): Array[Double] = {
    Arrays.sort(raw)
    var k = 1
    var i = 1
    while (i < raw.length) {
      if (raw(i) != raw(k - 1)) { raw(k) = raw(i); k += 1 }
      i += 1
    }
    val out = new Array[Double](2 * k - 1)
    i = 0
    while (i < k) {
      out(2 * i) = raw(i)
      if (i + 1 < k) out(2 * i + 1) = (raw(i) + raw(i + 1)) / 2
      i += 1
    }
    out
  }

  /** First index of sorted `a` holding a value above `v` (or equal to it,
    * if `orEqual`); `a.length` if there is none.
    */
  private def firstAbove(a: Array[Double], v: Double, orEqual: Boolean): Int = {
    var l = 0; var h = a.length
    while (l < h) {
      val mid = (l + h) >>> 1
      if (a(mid) > v || (orEqual && a(mid) == v)) h = mid else l = mid + 1
    }
    l
  }

  /** Segment tree over `m` columns: range-add of `(f_c, f_p)`, and the
    * maxima of `A = f_c − α·f_p` and `B = (1−α)·f_c`.
    *
    * Bottom-up layout over a power of two ≥ `m` leaves; padding leaves hold
    * `−∞`. Tags are never pushed down: a node's `tc`/`tp` apply to its whole
    * range and `a`/`b` are its subtree maxima including its own tags, so a
    * column's `f_c` is the sum of `tc` along its root path.
    */
  private final class MaxTree(m: Int, alpha: Double) {
    private val size = if (m == 1) 1 else Integer.highestOneBit(m - 1) << 1
    private val tc   = new Array[Double](2 * size)
    private val tp   = new Array[Double](2 * size)
    private val a    = new Array[Double](2 * size)
    private val b    = new Array[Double](2 * size)

    /** `f_c` / `f_p` of the column last returned by [[leftmostMax]]. */
    var fc = 0.0
    var fp = 0.0

    Arrays.fill(a, size + m, 2 * size, Double.NegativeInfinity)
    Arrays.fill(b, size + m, 2 * size, Double.NegativeInfinity)
    (size - 1 to 1 by -1).foreach(pull)

    /** The burst score's maximum over all columns. */
    def max: Double = math.max(a(1), b(1))

    /** Adds `(dc, dp)` to columns `[from, until)`. */
    def add(from: Int, until: Int, dc: Double, dp: Double): Unit = {
      var l = from + size
      var r = until + size
      while (l < r) {
        if ((l & 1) == 1) { tag(l, dc, dp); l += 1 }
        if ((r & 1) == 1) { r -= 1; tag(r, dc, dp) }
        l >>= 1; r >>= 1
      }
      // Only ancestors of the two end leaves changed; pull a shared one once.
      var u = (from + size) >> 1
      var v = (until - 1 + size) >> 1
      while (u != v) { pull(u); pull(v); u >>= 1; v >>= 1 }
      while (u >= 1) { pull(u); u >>= 1 }
    }

    /** Leftmost column attaining [[max]]; sets [[fc]] / [[fp]] to its sums. */
    def leftmostMax(): Int = {
      var c = 0.0; var q = 0.0
      var u = 1
      while (u < size) {
        c += tc(u); q += tp(u)
        val ta = c - alpha * q
        val tb = (1 - alpha) * c
        val l  = 2 * u
        u = if (math.max(a(l) + ta, b(l) + tb) >= math.max(a(l + 1) + ta, b(l + 1) + tb)) l else l + 1
      }
      fc = c + tc(u); fp = q + tp(u)
      u - size
    }

    private def tag(u: Int, dc: Double, dp: Double): Unit = {
      tc(u) += dc; tp(u) += dp
      a(u) += dc - alpha * dp
      b(u) += (1 - alpha) * dc
    }

    private def pull(u: Int): Unit = {
      a(u) = math.max(a(2 * u), a(2 * u + 1)) + tc(u) - alpha * tp(u)
      b(u) = math.max(b(2 * u), b(2 * u + 1)) + (1 - alpha) * tc(u)
    }
  }
}
