package repro.core

/** An element of an [[IndexedMaxHeap]]. The node stores its own heap slot
  * and priority, so the heap needs no side map and never boxes. A node
  * belongs to at most one heap at a time.
  */
abstract class HeapNode {
  private[core] var slot: Int = -1
  private[core] var prio: Double = 0.0

  /** Priority last given to this node by [[IndexedMaxHeap.update]]. */
  final def priority: Double = prio
}

/** What [[IndexedMaxHeap.bestValid]] needs to know about a node's cached
  * candidate: whether it is valid, how to recompute it, and its score.
  */
trait Candidates[N] {
  def isValid(x: N): Boolean
  /** Recompute `x`'s candidate and update its priority if that changes. */
  def revalidate(x: N): Unit
  def score(x: N): Double
}

/** An array-backed binary max-heap over intrusive [[HeapNode]]s.
  *
  * Both Cell-CSPOT and GAP-SURGE maintain "a heap over cells by upper bound /
  * burst score" (Sections IV-C, V-A), and aG2 one over rectangles. Their
  * priorities change on every event, so `update` changes a node's priority
  * in place and sifts it up or down: `O(log n)`, no stale entries, no
  * allocation beyond the amortised growth of the slot array.
  */
final class IndexedMaxHeap[N <: HeapNode] {
  private var nodes  = new Array[HeapNode](16)
  private var n      = 0
  private var popped = new Array[HeapNode](0) // nodes set aside by one bestValid

  /** Number of nodes in the heap. */
  def size: Int = n
  def isEmpty: Boolean = n == 0

  /** Insert `x` with priority `p`, or change its priority to `p`. */
  def update(x: N, p: Double): Unit =
    if (x.slot < 0) {
      if (n == nodes.length) nodes = java.util.Arrays.copyOf(nodes, 2 * n)
      x.prio = p
      n += 1
      siftUp(x, n - 1)
    } else {
      val old = x.prio
      x.prio = p
      if (p > old) siftUp(x, x.slot) else if (p < old) siftDown(x, x.slot)
    }

  /** Remove `x` if it is in the heap. */
  def remove(x: N): Unit = {
    val i = x.slot
    if (i >= 0) {
      x.slot = -1
      n -= 1
      val last = nodes(n)
      nodes(n) = null
      if (i < n) {
        if (last.prio > x.prio) siftUp(last, i) else siftDown(last, i)
      }
    }
  }

  /** The node with the maximum priority, or null when empty. */
  def peekMax: N = (if (n == 0) null else nodes(0)).asInstanceOf[N]

  /** Remove and return the node with the maximum priority, or null when
    * empty.
    */
  def popMax(): N = {
    val top = peekMax
    if (top != null) remove(top)
    top
  }

  /** The lazy branch-and-bound of Section IV-C1, for priorities that bound
    * their node's candidate score from above: the node with the best valid
    * candidate, or null when the heap is empty. Walks nodes in descending
    * priority, revalidates an invalid top, sets a valid top aside, and stops
    * once no priority exceeds the best score by more than `1e-9`. The nodes
    * set aside return with their priorities, in the order they left.
    */
  def bestValid(cs: Candidates[N]): N = {
    var best: N = null.asInstanceOf[N]
    var bestScore = 0.0
    var m = 0
    var done = false
    while (!done) {
      val x = peekMax
      if (x == null || (best != null && x.prio <= bestScore + 1e-9)) done = true
      else if (!cs.isValid(x)) cs.revalidate(x)
      else {
        val s = cs.score(x)
        if (best == null || s > bestScore) { best = x; bestScore = s }
        remove(x)
        if (m == popped.length) popped = java.util.Arrays.copyOf(popped, math.max(16, 2 * m))
        popped(m) = x
        m += 1
      }
    }
    var i = 0
    while (i < m) {
      val x = popped(i).asInstanceOf[N]
      popped(i) = null
      update(x, x.prio)
      i += 1
    }
    best
  }

  /** Place `x` at hole `i`, moving it towards the root past smaller parents. */
  private def siftUp(x: HeapNode, i0: Int): Unit = {
    var i = i0
    var moving = i > 0
    while (moving) {
      val parent = (i - 1) >>> 1
      val p      = nodes(parent)
      if (p.prio < x.prio) {
        nodes(i) = p; p.slot = i
        i = parent
        moving = i > 0
      } else moving = false
    }
    nodes(i) = x; x.slot = i
  }

  /** Place `x` at hole `i`, moving it towards the leaves past larger children. */
  private def siftDown(x: HeapNode, i0: Int): Unit = {
    var i = i0
    var moving = true
    while (moving) {
      val l = 2 * i + 1
      if (l >= n) moving = false
      else {
        val r = l + 1
        val c = if (r < n && nodes(r).prio > nodes(l).prio) r else l
        val child = nodes(c)
        if (child.prio > x.prio) {
          nodes(i) = child; child.slot = i
          i = c
        } else moving = false
      }
    }
    nodes(i) = x; x.slot = i
  }
}
