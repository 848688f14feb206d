package repro.core

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

/** Cases for [[IndexedMaxHeap]]. The suite keeps the name of the heap it
  * replaced so that its cases keep their ids.
  */
class LazyMaxHeapSpec extends AnyFunSuite {

  private final class Item(val key: String) extends HeapNode

  /** `(key, priority)` of the top node, as the old heap reported it. */
  private def top(h: IndexedMaxHeap[Item]): Option[(String, Double)] =
    Option(h.peekMax).map(n => (n.key, n.priority))

  test("peekMax on empty heap is None") {
    assert(new IndexedMaxHeap[Item].peekMax == null)
    assert(new IndexedMaxHeap[Item].popMax() == null)
  }

  test("update then peek returns the max") {
    val h = new IndexedMaxHeap[Item]
    h.update(new Item("a"), 1.0); h.update(new Item("b"), 5.0); h.update(new Item("c"), 3.0)
    assert(top(h).contains(("b", 5.0)))
  }

  test("updating a priority downward is observed") {
    val h = new IndexedMaxHeap[Item]
    val a = new Item("a")
    h.update(a, 5.0); h.update(new Item("b"), 3.0)
    h.update(a, 1.0)
    assert(top(h).contains(("b", 3.0)))
    assert(h.size == 2)
  }

  test("remove drops a key") {
    val h = new IndexedMaxHeap[Item]
    val (a, b) = (new Item("a"), new Item("b"))
    h.update(a, 5.0); h.update(b, 3.0)
    h.remove(a)
    assert(h.size == 1)
    assert(top(h).contains(("b", 3.0)))
    h.remove(b)
    assert(h.peekMax == null)
    h.remove(b) // removing an absent node is a no-op
    assert(h.isEmpty)
  }

  test("popMax removes and returns the max; re-update restores") {
    val h = new IndexedMaxHeap[Item]
    val a = new Item("a")
    h.update(a, 5.0); h.update(new Item("b"), 3.0)
    assert(h.popMax() eq a)
    assert(top(h).contains(("b", 3.0)))
    h.update(a, 5.0)
    assert(top(h).contains(("a", 5.0)))
  }

  test("raising a non-top node in place moves it to the top") {
    val h  = new IndexedMaxHeap[Item]
    val xs = (0 until 8).map(i => new Item(s"k$i"))
    xs.zipWithIndex.foreach { case (x, i) => h.update(x, i.toDouble) }
    h.update(xs(2), 10.0)
    assert(top(h).contains(("k2", 10.0)))
    assert(h.size == 8)
    assert((1 to 8).map(_ => h.popMax().key) == Seq("k2", "k7", "k6", "k5", "k4", "k3", "k1", "k0"))
  }

  test("lowering a non-top node in place sinks it") {
    val h  = new IndexedMaxHeap[Item]
    val xs = (0 until 8).map(i => new Item(s"k$i"))
    xs.zipWithIndex.foreach { case (x, i) => h.update(x, i.toDouble) }
    h.update(xs(6), -1.0)
    assert(top(h).contains(("k7", 7.0)))
    assert((1 to 8).map(_ => h.popMax().key) == Seq("k7", "k5", "k4", "k3", "k2", "k1", "k0", "k6"))
  }

  test("removing a non-top node keeps the rest in order") {
    val h  = new IndexedMaxHeap[Item]
    val xs = (0 until 8).map(i => new Item(s"k$i"))
    xs.zipWithIndex.foreach { case (x, i) => h.update(x, i.toDouble) }
    h.remove(xs(3))
    assert(h.size == 7)
    assert((1 to 7).map(_ => h.popMax().key) == Seq("k7", "k6", "k5", "k4", "k2", "k1", "k0"))
  }

  test("size after pop and re-insert") {
    val h  = new IndexedMaxHeap[Item]
    val xs = (0 until 5).map(i => new Item(s"k$i"))
    xs.foreach(x => h.update(x, 1.0))
    val popped = (1 to 3).map(_ => h.popMax())
    assert(h.size == 2 && popped.distinct.size == 3)
    popped.foreach(x => h.update(x, x.priority))
    assert(h.size == 5)
    h.update(xs(0), 2.0) // re-updating a present node does not add it twice
    assert(h.size == 5)
    assert((1 to 5).map(_ => h.popMax()).toSet == xs.toSet && h.isEmpty)
  }

  for (seed <- 0 until 20)
    test(s"randomized equivalence with a reference map, seed $seed") {
      val rng   = new Random(seed)
      val h     = new IndexedMaxHeap[Item]
      val items = Array.tabulate(50)(k => new Item(k.toString))
      val ref   = mutable.HashMap.empty[Int, Double]
      (1 to 2000).foreach { _ =>
        rng.nextInt(4) match {
          case 0 | 1 =>
            val k = rng.nextInt(50); val p = rng.nextInt(1000) / 10.0
            h.update(items(k), p); ref(k) = p
          case 2 =>
            val k = rng.nextInt(50)
            h.remove(items(k)); ref.remove(k)
          case 3 =>
            val expected = if (ref.isEmpty) None else Some(ref.values.max)
            assert(top(h).map(_._2) == expected)
            top(h).foreach { case (k, p) => assert(ref(k.toInt) == p) }
        }
      }
      assert(h.size == ref.size)
    }

  /** A node whose priority bounds its candidate's `score` from above. */
  private final class Cand(val key: String, val score: Double, var valid: Boolean) extends HeapNode

  private def candidates(h: IndexedMaxHeap[Cand], searched: mutable.Buffer[String]) =
    new Candidates[Cand] {
      def isValid(x: Cand): Boolean = x.valid
      def revalidate(x: Cand): Unit = { searched += x.key; x.valid = true; h.update(x, x.score) }
      def score(x: Cand): Double = x.score
    }

  test("bestValid searches only tops that may beat the best, then restores the heap") {
    val h        = new IndexedMaxHeap[Cand]
    val searched = mutable.ArrayBuffer.empty[String]
    val a = new Cand("a", 4.0, valid = false)
    val b = new Cand("b", 7.0, valid = true)
    val c = new Cand("c", 6.0, valid = false) // bound 6.5 cannot beat b's 7
    val d = new Cand("d", 1.0, valid = true)
    h.update(a, 9.0); h.update(b, 7.0); h.update(c, 6.5); h.update(d, 1.0)
    assert(h.bestValid(candidates(h, searched)) eq b)
    assert(searched == Seq("a"))
    assert(h.size == 4)
    assert(Seq(a, b, c, d).map(_.priority) == Seq(4.0, 7.0, 6.5, 1.0))
    assert(Seq.fill(4)(h.popMax().key) == Seq("b", "c", "a", "d"))
  }

  test("bestValid keeps the higher of two valid candidates under loose bounds") {
    val h = new IndexedMaxHeap[Cand]
    val a = new Cand("a", 2.0, valid = true) // loose bound 9
    val b = new Cand("b", 5.0, valid = true)
    h.update(a, 9.0); h.update(b, 5.0)
    assert(h.bestValid(candidates(h, mutable.ArrayBuffer.empty)) eq b)
    assert(h.size == 2 && h.peekMax.eq(a))
    assert(new IndexedMaxHeap[Cand].bestValid(candidates(h, mutable.ArrayBuffer.empty)) == null)
  }
}
