package repro.core

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite

class GridSpec extends AnyFunSuite {

  test("cellOf and cellBox are consistent") {
    val g = new Grid(1.0, 2.0)
    val rng = new Random(1)
    (1 to 300).foreach { _ =>
      val x = rng.nextDouble() * 40 - 20
      val y = rng.nextDouble() * 40 - 20
      val box = g.cellBox(g.cellOf(x, y))
      assert(box.contains(x, y), s"($x,$y) not in $box")
    }
  }

  test("cellOf with offsets shifts the lattice") {
    val g = new Grid(1.0, 1.0, 0.5, 0.5)
    assert(g.cellOf(0.4, 0.4) == (-1L, -1L))
    assert(g.cellOf(0.6, 0.6) == (0L, 0L))
  }

  for (seed <- 0 until 15)
    test(s"cellsOverlapping covers exactly the closed-intersecting cells, seed $seed") {
      val rng = new Random(seed)
      val g   = new Grid(1.0 + rng.nextDouble(), 1.0 + rng.nextDouble(),
                         rng.nextDouble(), rng.nextDouble())
      (1 to 50).foreach { _ =>
        val x = rng.nextDouble() * 20 - 10
        val y = rng.nextDouble() * 20 - 10
        val b = Box(x, y, x + g.cellW, y + g.cellH)
        val keys = g.cellsOverlapping(b).toSet
        // every returned cell closed-intersects the box
        keys.foreach(k => assert(g.cellBox(k).intersectsClosed(b)))
        // sampled points of the box land in returned cells
        (1 to 30).foreach { _ =>
          val px = b.x0 + rng.nextDouble() * (b.x1 - b.x0)
          val py = b.y0 + rng.nextDouble() * (b.y1 - b.y0)
          assert(keys.contains(g.cellOf(px, py)))
        }
      }
    }

  test("a cell-sized rect overlaps at most 4 cells in general position (Lemma 1)") {
    val g = new Grid(1.0, 1.0)
    val rng = new Random(99)
    (1 to 500).foreach { _ =>
      // irrational-ish offsets avoid exact grid alignment
      val x = rng.nextDouble() * 10 + 1e-7
      val y = rng.nextDouble() * 10 + 1e-7
      val n = g.cellsOverlapping(Box(x, y, x + 1.0, y + 1.0)).size
      assert(n <= 4, s"rect at ($x,$y) overlapped $n cells")
    }
  }

  test("grid-aligned rect conservatively maps to the touching cells too") {
    val g = new Grid(1.0, 1.0)
    val keys = g.cellsOverlapping(Box(2.0, 3.0, 3.0, 4.0)).toSet
    assert(keys.contains((2L, 3L)))
    // boundary-touching neighbours included (closed semantics)
    assert(keys.contains((3L, 4L)))
  }

  test("a grid-aligned cell-sized rect maps to all 9 closed-touching cells") {
    val g = new Grid(1.0, 1.0)
    val keys = g.cellsOverlapping(Box(2.0, 3.0, 3.0, 4.0)).toSet
    assert(keys == (for (i <- 1L to 3L; j <- 2L to 4L) yield (i, j)).toSet)
    val out = new Array[Long](Grid.MaxOverlap)
    assert(g.cellsOverlapping(Box(2.0, 3.0, 3.0, 4.0), out) == 9)
  }

  test("cellsOverlapping returns exactly the closed-intersecting cells of lattice boxes") {
    for (g <- Seq(new Grid(1.0, 1.0), new Grid(0.5, 1.5, 0.5, -0.5)); x <- 0 to 16; y <- 0 to 16) {
      val b   = Box(x * 0.25, y * 0.25, x * 0.25 + g.cellW, y * 0.25 + g.cellH)
      val exp = for (i <- -4L to 12L; j <- -4L to 12L if g.cellBox((i, j)).intersectsClosed(b)) yield (i, j)
      assert(g.cellsOverlapping(b).toSet == exp.toSet, s"$b")
    }
  }

  test("pack and unpack round-trip, including negative indices") {
    val g = new Grid(1.0, 1.0, 0.5, 0.5)
    assert(g.cellOf(0.4, 0.4) == (-1L, -1L))
    val k = g.keyOf(0.4, 0.4)
    assert(Grid.unpack(k) == (-1L, -1L))
    assert(g.cellBox(k) == g.cellBox((-1L, -1L)))
    val edge = Seq(Int.MinValue.toLong, -2L, -1L, 0L, 1L, Int.MaxValue.toLong)
    val keys = for (i <- edge; j <- edge) yield {
      val p = Grid.pack(i, j)
      assert(Grid.unpack(p) == (i, j))
      p
    }
    assert(keys.distinct.size == keys.size)
  }

  test("pack rejects an index outside the Int range") {
    intercept[IllegalArgumentException](Grid.pack(Int.MaxValue.toLong + 1, 0L))
    intercept[IllegalArgumentException](Grid.pack(0L, Int.MinValue.toLong - 1))
    val g = new Grid(1.0, 1.0)
    intercept[IllegalArgumentException](g.keyOf(1e12, 0.0))
  }

  test("the allocation-free enumeration rejects a too-short buffer") {
    val g = new Grid(1.0, 1.0)
    val out = new Array[Long](4)
    assert(g.cellsOverlapping(Box(0.5, 0.5, 1.5, 1.5), out) == 4)
    intercept[IllegalArgumentException](g.cellsOverlapping(Box(0.5, 0.5, 2.5, 2.5), out))
  }
}
