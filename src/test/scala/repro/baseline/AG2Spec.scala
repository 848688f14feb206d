package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen
import repro.core._
import repro.exp.Tables.LiveSet
import repro.stream.EventStream

/** The adapted aG2 baseline must be *exact* (it is a different index over
  * the same problem), so replay-compare it with the brute-force oracle.
  */
class AG2Spec extends AnyFunSuite {

  /** Replays `objs` and, after every event, compares aG2's report with the
    * brute-force optimum and its point's tracked score with the true one.
    */
  private def replay(objs: IndexedSeq[SpatialObj], cfg: SurgeConfig): Unit = {
    val algo = new AG2(cfg)
    val live = new LiveSet(cfg.windowMillis)
    EventStream.fromObjects(objs, cfg.windowMillis).foreach { e =>
      live(e)
      val now = live.objectsAt(e.at)
      val got = algo.onEvent(e)
      val exp = BruteForce.burstyPoint(now, e.at, cfg).map(_.score).getOrElse(0.0)
      assert(math.abs(got.map(_.score).getOrElse(0.0) - exp) < 1e-6,
             s"at ${e.kind}@${e.at}: got $got, brute $exp")
      got.foreach { p =>
        val chk = BruteForce.scoreAt(now, e.at, cfg, p.x, p.y).score
        assert(math.abs(chk - p.score) < 1e-6, s"at ${e.kind}@${e.at}: stale candidate $p vs $chk")
      }
    }
  }

  for (seed <- 0 until 10)
    test(s"aG2 matches brute force after every event, seed $seed") {
      replay(TestGen.stream(seed, 40), TestGen.cfg(windowMillis = 1000L, alpha = (seed % 10) / 10.0))
    }

  for (seed <- 0 until 5)
    test(s"aG2 matches brute force on clustered streams, seed $seed") {
      replay(TestGen.clusteredStream(seed, 45), TestGen.cfg(windowMillis = 1200L, alpha = 0.5))
    }

  // Integer weights make score ties common, lattice corners put rect edges
  // on one another and on the grid lines, and α at 0 and 0.99 are the
  // extremes of the burst score.
  for (alpha <- Seq(0.0, 0.99); seed <- 0 until 6)
    test(s"aG2 matches brute force on a 0.5 lattice with integer weights, alpha $alpha, seed $seed") {
      replay(TestGen.stream(seed, 50, ext = 3.0, intWeights = true, lattice = true),
             TestGen.cfg(windowMillis = 1000L, alpha = alpha))
    }

  // New, Grown and Expired events of several objects fire at one time.
  for (seed <- 0 until 6)
    test(s"aG2 matches brute force on runs of equal timestamps, seed $seed") {
      replay(TestGen.stream(seed, 50, ext = 3.0, tick = 250L),
             TestGen.cfg(windowMillis = 1000L, alpha = Seq(0.0, 0.5, 0.99)(seed % 3)))
    }

  // Overlapping copies, and copies in different index cells.
  test("a repeated live id fails loudly at its second New") {
    for (x <- Seq(0.3, 25.0)) {
      val algo = new AG2(TestGen.cfg())
      val objs = Seq(SpatialObj(7L, 1.0, 0.2, 0.2, 10000L), SpatialObj(7L, 1.0, x, x, 10100L))
      val Seq(first, second) = EventStream.fromObjects(objs, 1000L, drainTail = false).toSeq
      algo.onEvent(first)
      val err = intercept[IllegalArgumentException](algo.onEvent(second))
      assert(err.getMessage == "object id 7 is already live")
    }
  }

  test("aG2 agrees with CCS along a whole stream") {
    val cfg = TestGen.cfg(windowMillis = 1500L)
    val a   = new AG2(cfg)
    val c   = new CellCspot(cfg, BoundMode.Full)
    EventStream.fromObjects(TestGen.stream(77, 120), cfg.windowMillis).foreach { e =>
      val ga = a.onEvent(e).map(_.score).getOrElse(0.0)
      val gc = c.onEvent(e).map(_.score).getOrElse(0.0)
      assert(math.abs(ga - gc) < 1e-6)
    }
  }

  test("graph edges drain to zero when the stream expires") {
    val cfg  = TestGen.cfg(windowMillis = 100L)
    val algo = new AG2(cfg)
    EventStream.fromObjects(TestGen.stream(5, 30, span = 400L), cfg.windowMillis)
      .foreach(algo.onEvent)
    assert(algo.edgeCount == 0)
    assert(algo.query().isEmpty)
  }

  test("edge count grows with overlap density (the O(n²) space concern)") {
    val cfg  = TestGen.cfg(windowMillis = 100000L)
    val algo = new AG2(cfg)
    // all objects near one point → near-complete overlap graph
    val objs = (0 until 30).map(i => SpatialObj(i.toLong, 1.0, 1.0 + i * 0.001, 1.0, 1000L + i))
    EventStream.fromObjects(objs, cfg.windowMillis, drainTail = false).foreach(algo.onEvent)
    assert(algo.edgeCount == 30L * 29 / 2)
  }
}
