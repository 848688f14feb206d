package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen
import repro.exp.Tables.LiveSet
import repro.stream.EventStream

/** Replay validation of the continuous exact solutions: after *every* event
  * of randomized streams the reported burst score must equal the brute-force
  * snapshot optimum (Section IV-C correctness), in all three bound modes.
  */
class CellCspotSpec extends AnyFunSuite {

  private val modes = Seq(BoundMode.Full, BoundMode.StaticOnly, BoundMode.NoBounds)

  /** `got` must score the brute-force optimum over `live` at `now`, and its
    * tracked scores must be the true scores at its point.
    */
  private def check(got: Option[BurstyPoint], live: IndexedSeq[SpatialObj], now: Long,
                    cfg: SurgeConfig, at: => String): Unit =
    (got, BruteForce.burstyPoint(live, now, cfg)) match {
      case (None, None) => ()
      case (Some(g), Some(b)) =>
        assert(math.abs(g.score - b.score) < 1e-6, s"$at: got ${g.score}, brute ${b.score}")
        val chk = BruteForce.scoreAt(live, now, cfg, g.x, g.y)
        assert(math.abs(chk.score - g.score) < 1e-6, s"$at: stale candidate $g vs $chk")
      case (g, b) => fail(s"$at: presence mismatch got=$g brute=$b")
    }

  private def replay(objs: IndexedSeq[SpatialObj], cfg: SurgeConfig, mode: BoundMode): Unit = {
    val algo = new CellCspot(cfg, mode)
    val live = new LiveSet(cfg.windowMillis)
    EventStream.fromObjects(objs, cfg.windowMillis).foreach { e =>
      live(e)
      check(algo.onEvent(e), live.objectsAt(e.at), e.at, cfg, s"$mode at ${e.kind}@${e.at}")
    }
  }

  for (mode <- modes; seed <- 0 until 12)
    test(s"$mode matches brute force after every event (uniform), seed $seed") {
      val cfg = TestGen.cfg(windowMillis = 1000L, alpha = (seed % 10) / 10.0)
      replay(TestGen.stream(seed, 40), cfg, mode)
    }

  for (mode <- modes; seed <- 0 until 8)
    test(s"$mode matches brute force after every event (clustered), seed $seed") {
      val cfg = TestGen.cfg(windowMillis = 1200L, alpha = 0.5)
      replay(TestGen.clusteredStream(seed, 45), cfg, mode)
    }

  for (seed <- 0 until 6)
    test(s"non-unit rectangle sizes, seed $seed") {
      val cfg = TestGen.cfg(windowMillis = 1000L, alpha = 0.5, rectW = 1.7, rectH = 0.6)
      replay(TestGen.stream(seed, 35), cfg, BoundMode.Full)
    }

  // Integer weights make score ties common, and lattice corners put rect
  // edges on cell lines (a rect then overlaps 9 cells); α at 0 and 0.99
  // are the edges of the dynamic-bound and validity rules.
  for (mode <- modes; alpha <- Seq(0.0, 0.99); seed <- 0 until 6)
    test(s"$mode matches brute force on a 0.5 lattice with integer weights, alpha $alpha, seed $seed") {
      val cfg = TestGen.cfg(windowMillis = 1000L, alpha = alpha)
      replay(TestGen.stream(seed, 50, ext = 3.0, intWeights = true, lattice = true), cfg, mode)
    }

  // Runs of objects share one timestamp, so New, Grown and Expired events
  // of several objects fire at one time and window membership is
  // move-driven mid-batch.
  for (mode <- modes; seed <- 0 until 6)
    test(s"$mode matches brute force on runs of equal timestamps, seed $seed") {
      val cfg = TestGen.cfg(windowMillis = 1000L, alpha = Seq(0.0, 0.5, 0.99)(seed % 3))
      replay(TestGen.stream(seed, 50, ext = 3.0, tick = 250L), cfg, mode)
    }

  for (mode <- modes; seed <- 0 until 4)
    test(s"$mode: moves Cur→Out, Out→Past and back match brute force, seed $seed") {
      val cfg    = TestGen.cfg(windowMillis = 1000L, alpha = 0.5)
      val algo   = new CellCspot(cfg, mode)
      val live   = new LiveSet(cfg.windowMillis)
      val events = EventStream.fromObjects(TestGen.clusteredStream(seed, 45), cfg.windowMillis).toIndexedSeq
      val (prefix, rest) = events.splitAt(events.length / 2)
      prefix.foreach { e => live(e); algo.onEvent(e) }
      val now = algo.now
      // Current rects covering the reported point, so each move changes it.
      val p      = algo.query().get
      val movers = live.cur.values.filter(o => cfg.rectBox(o).contains(p.x, p.y)).take(3).toList
      assert(movers.nonEmpty)
      movers.foreach { o =>
        def step(from: Win, to: Win): Unit = {
          algo.move(o, from, to)
          live.cur.remove(o.id); live.past.remove(o.id)
          if (to == Win.Cur) live.cur(o.id) = o
          if (to == Win.Past) live.past(o.id) = o
          check(algo.query(), live.objectsAt(now), now, cfg, s"$mode: ${o.id} $from→$to")
        }
        step(Win.Cur, Win.Out); step(Win.Out, Win.Past); step(Win.Past, Win.Out); step(Win.Out, Win.Cur)
      }
      rest.foreach { e =>
        live(e)
        check(algo.onEvent(e), live.objectsAt(e.at), e.at, cfg, s"$mode at ${e.kind}@${e.at}")
      }
    }

  // In disjoint cells the duplicate is caught when its second copy turns Past.
  for ((where, x) <- Seq(("the same cell", 0.3), ("disjoint cells", 5.2)))
    test(s"a repeated live id in $where fails loudly") {
      val algo = new CellCspot(TestGen.cfg(), BoundMode.Full)
      val objs = Seq(SpatialObj(7L, 1.0, 0.2, 0.2, 10000L), SpatialObj(7L, 1.0, x, x, 10100L))
      val err = intercept[IllegalArgumentException] {
        EventStream.fromObjects(objs, 1000L).foreach(algo.onEvent)
      }
      assert(err.getMessage.contains("id 7"))
    }

  test("Theorem 1: region with top-right corner at the bursty point scores the same") {
    val cfg  = TestGen.cfg(windowMillis = 1000L, alpha = 0.5)
    val objs = TestGen.stream(3, 40)
    val algo = new CellCspot(cfg, BoundMode.Full)
    val live = new LiveSet(cfg.windowMillis)
    EventStream.fromObjects(objs, cfg.windowMillis).foreach { e =>
      live(e)
      algo.onEvent(e).foreach { p =>
        val region = cfg.regionOf(p.x, p.y)
        var fc = 0.0; var fp = 0.0
        live.objectsAt(e.at).foreach { o =>
          if (region.contains(o.x, o.y)) Win.of(o.t, e.at, cfg.windowMillis) match {
            case Win.Cur  => fc += cfg.delta(o.w)
            case Win.Past => fp += cfg.delta(o.w)
            case Win.Out  => ()
          }
        }
        assert(math.abs(cfg.burst(fc, fp) - p.score) < 1e-6)
      }
    }
  }

  test("CCS triggers far fewer searches than B-CCS on a clustered stream") {
    val cfg  = TestGen.cfg(windowMillis = 1500L, alpha = 0.5)
    val objs = TestGen.clusteredStream(11, 300)
    val ccs  = new CellCspot(cfg, BoundMode.Full)
    val bccs = new CellCspot(cfg, BoundMode.StaticOnly)
    EventStream.fromObjects(objs, cfg.windowMillis).foreach { e =>
      ccs.onEvent(e); bccs.onEvent(e)
    }
    assert(ccs.stats.searches < bccs.stats.searches,
           s"ccs=${ccs.stats.searches} bccs=${bccs.stats.searches}")
  }

  test("empty structure reports no bursty point and survives queries") {
    val algo = new CellCspot(TestGen.cfg(), BoundMode.Full)
    assert(algo.query().isEmpty)
  }

  test("structure drains to empty after all objects expire") {
    val cfg  = TestGen.cfg(windowMillis = 100L)
    val algo = new CellCspot(cfg, BoundMode.Full)
    val objs = TestGen.stream(5, 20, span = 300L)
    EventStream.fromObjects(objs, cfg.windowMillis).foreach(algo.onEvent)
    assert(algo.cellCount == 0)
    assert(algo.query().isEmpty)
  }

  test("rectsCovering finds exactly the covering live rects") {
    val cfg  = TestGen.cfg(windowMillis = 1000L)
    val objs = TestGen.stream(7, 30)
    val algo = new CellCspot(cfg, BoundMode.Full)
    val live = new LiveSet(cfg.windowMillis)
    var checked = 0
    EventStream.fromObjects(objs, cfg.windowMillis).foreach { e =>
      live(e); algo.onEvent(e)
      val p = (e.obj.x + 0.1, e.obj.y + 0.1)
      val got = algo.rectsCovering(p._1, p._2).map(_.id).toSet
      val exp = BruteForce.coverIds(live.objectsAt(e.at), e.at, cfg, p._1, p._2)
      assert(got == exp); checked += 1
    }
    assert(checked > 0)
  }
}
