package repro.core

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen

class SweepLineSpec extends AnyFunSuite {
  private val W   = 1000L
  private val big = Box(-10, -10, 30, 30) // encloses every test rect fully

  test("empty input yields no point") {
    val r = SweepLine.burstyPoint(Nil, big, 1000L, TestGen.cfg())
    assert(r.point.isEmpty && r.rectCount == 0)
  }

  test("a single current rect yields its own weight as score") {
    val cfg = TestGen.cfg(windowMillis = 3600000L) // |W| = 1h → delta(w) = w
    val o   = SpatialObj(0, 5.0, 2.0, 3.0, 900000L)
    val r   = SweepLine.burstyPoint(Seq(o), big, 1000000L, cfg)
    val p   = r.point.get
    assert(math.abs(p.score - 5.0) < 1e-9)
    assert(cfg.rectBox(o).contains(p.x, p.y))
  }

  test("a rect only in the past window scores zero") {
    val cfg = TestGen.cfg(windowMillis = 3600000L)
    val o   = SpatialObj(0, 5.0, 2.0, 3.0, 900000L)
    val r   = SweepLine.burstyPoint(Seq(o), big, 900000L + 2 * 3600000L - 1, cfg)
    assert(math.abs(r.point.get.score - 0.0) < 1e-9)
  }

  test("expired rects are ignored entirely") {
    val cfg = TestGen.cfg(windowMillis = 100L)
    val o   = SpatialObj(0, 5.0, 2.0, 3.0, 0L)
    val r   = SweepLine.burstyPoint(Seq(o), big, 10000L, cfg)
    assert(r.point.isEmpty && r.rectCount == 0)
  }

  test("two overlapping current rects stack") {
    val cfg = TestGen.cfg(windowMillis = 3600000L)
    val now = 1000000L
    val os = Seq(SpatialObj(0, 2.0, 0.0, 0.0, now - 10), SpatialObj(1, 3.0, 0.5, 0.5, now - 20))
    val p = SweepLine.burstyPoint(os, big, now, cfg).point.get
    assert(math.abs(p.score - 5.0) < 1e-9)
  }

  test("past-window overlap reduces the burst score via the alpha term") {
    val cfg = TestGen.cfg(windowMillis = 3600000L, alpha = 0.5)
    val now = 10 * 3600000L
    val cur  = SpatialObj(0, 4.0, 0.0, 0.0, now - 100)
    val past = SpatialObj(1, 4.0, 0.0, 0.0, now - 3600000L - 100)
    val p = SweepLine.burstyPoint(Seq(cur, past), big, now, cfg).point.get
    // fc = 4, fp = 4 → S = 0.5·0 + 0.5·4 = 2
    assert(math.abs(p.score - 2.0) < 1e-9)
  }

  for (seed <- 0 until 40)
    test(s"matches brute force on a random snapshot, seed $seed") {
      val rng = new Random(seed)
      val cfg = TestGen.cfg(
        windowMillis = W, alpha = rng.nextInt(10) / 10.0,
        rectW = 0.5 + rng.nextDouble(), rectH = 0.5 + rng.nextDouble())
      val now  = 20000L
      val objs = TestGen.snapshot(seed, 3 + rng.nextInt(50), now, W)
      val sw = SweepLine.burstyPoint(objs, big, now, cfg).point
      val bf = BruteForce.burstyPoint(objs, now, cfg)
      assert(sw.isDefined == bf.isDefined)
      for (s <- sw; b <- bf) {
        assert(math.abs(s.score - b.score) < 1e-9, s"sweep=${s.score} brute=${b.score}")
        // self-consistency: the reported point really has that score
        val check = BruteForce.scoreAt(objs, now, cfg, s.x, s.y)
        assert(math.abs(check.score - s.score) < 1e-9)
        assert(math.abs(check.fc - s.fc) < 1e-9 && math.abs(check.fp - s.fp) < 1e-9)
      }
    }

  for (seed <- 0 until 25)
    test(s"box-restricted search matches restricted brute force, seed $seed") {
      val rng  = new Random(1000 + seed)
      val cfg  = TestGen.cfg(windowMillis = W, alpha = 0.5)
      val now  = 20000L
      val objs = TestGen.snapshot(seed, 30, now, W)
      val x0 = rng.nextDouble() * 4; val y0 = rng.nextDouble() * 4
      val box = Box(x0, y0, x0 + 1.0, y0 + 1.0)
      val sw = SweepLine.burstyPoint(objs, box, now, cfg).point
      val bf = BruteForce.burstyPoint(objs, now, cfg, Some(box))
      assert(sw.isDefined == bf.isDefined)
      for (s <- sw; b <- bf) {
        assert(box.contains(s.x, s.y), s"point outside box: $s")
        assert(math.abs(s.score - b.score) < 1e-9, s"sweep=${s.score} brute=${b.score}")
      }
    }

  test("rectCount reports only live rects intersecting the box") {
    val cfg  = TestGen.cfg(windowMillis = 1000L)
    val now  = 10000L
    val objs = Seq(
      SpatialObj(0, 1, 0, 0, now - 10),   // current, inside
      SpatialObj(1, 1, 25, 25, now - 10), // current, outside big2
      SpatialObj(2, 1, 0, 0, now - 5000), // expired
    )
    val box = Box(-1, -1, 2, 2)
    assert(SweepLine.burstyPoint(objs, box, now, cfg).rectCount == 1)
  }

  test("tie-break: the higher of two disjoint equal rects wins, then the leftmost") {
    val cfg = TestGen.cfg(windowMillis = 3600000L)
    val now = 1000000L
    val low   = SpatialObj(0, 2.0, 0.0, 0.0, now - 10)
    val high  = SpatialObj(1, 2.0, 3.0, 2.0, now - 10)
    val p = SweepLine.burstyPoint(Seq(low, high), big, now, cfg).point.get
    assert((p.x, p.y, p.score) == (3.0, 3.0, 2.0))
    val right = SpatialObj(0, 2.0, 3.0, 2.0, now - 10)
    val left  = SpatialObj(1, 2.0, 0.0, 2.0, now - 10)
    val q = SweepLine.burstyPoint(Seq(right, left), big, now, cfg).point.get
    assert((q.x, q.y, q.score) == (0.0, 3.0, 2.0))
  }

  /** Integer weights and rect corners on a 0.5 lattice: edges coincide,
    * column ranges are one candidate wide, some rects appear twice, and
    * timestamps sit on the window boundaries. With `|W|` = 1 h every
    * `f_c`/`f_p` is an exact integer sum.
    */
  private def latticeSnapshot(rng: Random, now: Long, hour: Long): IndexedSeq[SpatialObj] = {
    val base = (0 until 5 + rng.nextInt(30)).map { i =>
      SpatialObj(i.toLong, 1.0 + rng.nextInt(4), 0.5 * rng.nextInt(9), 0.5 * rng.nextInt(9),
                 now - rng.nextInt(5) * (hour / 2))
    }
    base ++ base.take(rng.nextInt(base.length)).map(o => o.copy(id = o.id + 1000))
  }

  for (seed <- 0 until 24)
    test(s"lattice snapshot with integer weights and ties matches brute force, seed $seed") {
      val rng  = new Random(5000 + seed)
      val hour = 3600000L
      val cfg  = TestGen.cfg(windowMillis = hour, alpha = if (seed % 2 == 0) 0.0 else 0.99,
                             rectW = 0.5 * (1 + rng.nextInt(3)), rectH = 0.5 * (1 + rng.nextInt(3)))
      val now  = 10 * hour
      val objs = latticeSnapshot(rng, now, hour)
      val x0 = 0.5 * rng.nextInt(6); val y0 = 0.5 * rng.nextInt(6)
      // The lattice box has edges on the same lattice as the rects.
      for (box <- Seq(big, Box(x0, y0, x0 + cfg.rectW, y0 + cfg.rectH))) {
        val sw = SweepLine.burstyPoint(objs, box, now, cfg).point
        val bf = BruteForce.burstyPoint(objs, now, cfg, Some(box))
        assert(sw.isDefined == bf.isDefined)
        for (s <- sw; b <- bf) {
          assert(box.contains(s.x, s.y), s"point outside $box: $s")
          assert(math.abs(s.score - b.score) < 1e-9, s"box=$box sweep=$s brute=$b")
          val check = BruteForce.scoreAt(objs, now, cfg, s.x, s.y)
          assert(check.fc == s.fc && check.fp == s.fp, s"box=$box sweep=$s at point=$check")
        }
      }
    }

  test("a 2,000-rect cell reports a point whose score no sampled candidate beats") {
    val rng  = new Random(77)
    val hour = 3600000L
    val cfg  = TestGen.cfg(windowMillis = hour, alpha = 0.5)
    val now  = 10 * hour
    // Every rect overlaps the unit cell [0,1]²: corners uniform in [-1,1]².
    val objs = (0 until 2000).map { i =>
      SpatialObj(i.toLong, 1.0 + rng.nextInt(100), rng.nextDouble() * 2 - 1,
                 rng.nextDouble() * 2 - 1, now - (rng.nextDouble() * 2 * hour).toLong)
    }
    val cell = Box(0, 0, 1, 1)
    val res  = SweepLine.burstyPoint(objs, cell, now, cfg)
    assert(res.rectCount == 2000)
    val p     = res.point.get
    val check = BruteForce.scoreAt(objs, now, cfg, p.x, p.y)
    assert(cell.contains(p.x, p.y))
    assert((p.fc, p.fp, p.score) == (check.fc, check.fp, check.score))
    // Candidates of the arrangement: clipped edges and their midpoints.
    def axis(edges: Seq[Double]): IndexedSeq[Double] = {
      val e = edges.distinct.sorted.toIndexedSeq
      e ++ e.sliding(2).map(w => (w(0) + w(1)) / 2)
    }
    val xs = axis(objs.flatMap(o => Seq(math.max(o.x, 0.0), math.min(o.x + 1, 1.0))))
    val ys = axis(objs.flatMap(o => Seq(math.max(o.y, 0.0), math.min(o.y + 1, 1.0))))
    for (_ <- 0 until 2500) {
      val q = BruteForce.scoreAt(objs, now, cfg, xs(rng.nextInt(xs.length)), ys(rng.nextInt(ys.length)))
      assert(q.score <= p.score, s"candidate $q beats reported $p")
    }
  }
}
