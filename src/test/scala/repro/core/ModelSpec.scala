package repro.core

import java.util.Random
import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen

class ModelSpec extends AnyFunSuite {
  private val cfg = TestGen.cfg(windowMillis = 1000L, alpha = 0.5)

  test("Win.of: creation time inside (now-W, now] is Current") {
    assert(Win.of(1000, 1000, 100) == Win.Cur)
    assert(Win.of(901, 1000, 100) == Win.Cur)
  }
  test("Win.of: boundary now-W belongs to the Past window") {
    assert(Win.of(900, 1000, 100) == Win.Past)
  }
  test("Win.of: creation time inside (now-2W, now-W] is Past") {
    assert(Win.of(801, 1000, 100) == Win.Past)
  }
  test("Win.of: boundary now-2W is Out") {
    assert(Win.of(800, 1000, 100) == Win.Out)
  }
  test("Win.of: older than 2W is Out") {
    assert(Win.of(500, 1000, 100) == Win.Out)
  }
  test("Win.of: future timestamps are Out") {
    assert(Win.of(1001, 1000, 100) == Win.Out)
  }

  test("burst score definition: alpha balances burstiness and significance") {
    val c = TestGen.cfg(alpha = 0.3)
    assert(math.abs(c.burst(10, 4) - (0.3 * 6 + 0.7 * 10)) < 1e-12)
  }
  test("burst score clamps negative increase to zero") {
    val c = TestGen.cfg(alpha = 0.3)
    assert(math.abs(c.burst(4, 10) - 0.7 * 4) < 1e-12)
  }
  test("burst score with alpha=0 is the current-window score") {
    val c = TestGen.cfg(alpha = 0.0)
    assert(math.abs(c.burst(7, 3) - 7.0) < 1e-12)
  }
  test("burst score linearises: S = max(fc − α·fp, (1−α)·fc) (property)") {
    // Integer weights make fc == fp ties common; continuous ones do not.
    val weight = Gen.oneOf(Gen.choose(0, 60).map(_.toDouble), Gen.choose(0.0, 1e4))
    val alpha  = Gen.oneOf(Gen.const(0.0), Gen.const(0.99), Gen.choose(0.0, 1.0).suchThat(_ < 1))
    val prop = Prop.forAll(weight, weight, alpha) { (fc, fp, a) =>
      val lin = math.max(fc - a * fp, (1 - a) * fc)
      // Both forms round at the scale of their operands, not of the result.
      math.abs(TestGen.cfg(alpha = a).burst(fc, fp) - lin) <= 1e-12 * math.max(fc, fp)
    }
    val params = Check.Parameters.default.withMinSuccessfulTests(5000).withInitialSeed(Seed(11L))
    val result = Check.check(params, prop)
    assert(result.passed, result.status)
  }

  test("delta normalises by window length in hours") {
    val c = TestGen.cfg(windowMillis = 3600000L)
    assert(math.abs(c.delta(42.0) - 42.0) < 1e-12)
    val c2 = TestGen.cfg(windowMillis = 1800000L)
    assert(math.abs(c2.delta(42.0) - 84.0) < 1e-12)
  }

  test("SurgeConfig rejects invalid alpha") {
    intercept[IllegalArgumentException](TestGen.cfg(alpha = 1.0))
    intercept[IllegalArgumentException](TestGen.cfg(alpha = -0.1))
  }
  test("SurgeConfig rejects non-positive sizes and windows") {
    intercept[IllegalArgumentException](SurgeConfig(0, 1, 100, 0.5))
    intercept[IllegalArgumentException](SurgeConfig(1, 1, 0, 0.5))
  }

  test("static upper bound argument (Lemma 2): S(p) <= f_c(p)") {
    val rng = new Random(7)
    (1 to 200).foreach { _ =>
      val fc = rng.nextDouble() * 100
      val fp = rng.nextDouble() * 100
      assert(cfg.burst(fc, fp) <= fc + 1e-9)
    }
  }

  test("Lemma 5 numeric form: S(r2) >= (1-alpha) S(r1) when r1 ⊆ r2") {
    val rng = new Random(8)
    (1 to 200).foreach { _ =>
      val a   = rng.nextDouble() * 0.99
      val c   = TestGen.cfg(alpha = a)
      val fc1 = rng.nextDouble() * 50
      val fp1 = rng.nextDouble() * 50
      val fc2 = fc1 + rng.nextDouble() * 50 // containment only grows f
      val fp2 = fp1 + rng.nextDouble() * 50
      assert(c.burst(fc2, fp2) >= (1 - a) * c.burst(fc1, fp1) - 1e-9)
    }
  }

  test("Lemma 6 numeric form: subadditivity over disjoint regions") {
    val rng = new Random(9)
    (1 to 200).foreach { _ =>
      val a = rng.nextDouble() * 0.99
      val c = TestGen.cfg(alpha = a)
      val (fc1, fp1) = (rng.nextDouble() * 50, rng.nextDouble() * 50)
      val (fc2, fp2) = (rng.nextDouble() * 50, rng.nextDouble() * 50)
      assert(c.burst(fc1, fp1) + c.burst(fc2, fp2) >= c.burst(fc1 + fc2, fp1 + fp2) - 1e-9)
    }
  }

  for (seed <- 0 until 20)
    test(s"rectBox/regionOf duality (Theorem 1 reduction), seed $seed") {
      val rng = new Random(seed)
      (1 to 100).foreach { _ =>
        val o = SpatialObj(0, 1, rng.nextDouble() * 10, rng.nextDouble() * 10, 0)
        val px = rng.nextDouble() * 12 - 1
        val py = rng.nextDouble() * 12 - 1
        val inRect   = cfg.rectBox(o).contains(px, py)
        val inRegion = cfg.regionOf(px, py).contains(o.x, o.y)
        assert(inRect == inRegion)
      }
    }

  test("Box closed containment includes edges") {
    val b = Box(0, 0, 1, 1)
    assert(b.contains(0, 0) && b.contains(1, 1) && b.contains(0.5, 1))
    assert(!b.contains(1.0001, 0.5))
  }
  test("Box intersectsClosed counts touching; overlapsOpen does not") {
    val a = Box(0, 0, 1, 1); val b = Box(1, 0, 2, 1)
    assert(a.intersectsClosed(b))
    assert(!a.overlapsOpen(b))
    assert(a.overlapsOpen(Box(0.5, 0.5, 2, 2)))
  }
}
