package repro

import java.util.Random
import repro.core._

/** Deterministic random-stream generators for the unit suites. Weights are
  * continuous by default so burst-score ties between *different* cover sets
  * have probability ~0 — which makes greedy top-k score vectors well-defined
  * and lets replay tests compare optimised structures against the brute
  * oracle without tie ambiguity.
  */
object TestGen {

  def cfg(windowMillis: Long = 1000L, alpha: Double = 0.5,
          rectW: Double = 1.0, rectH: Double = 1.0): SurgeConfig =
    SurgeConfig(rectW, rectH, windowMillis, alpha)

  /** `n` objects with nondecreasing timestamps over `span` ms, uniform
    * positions in `[0,ext]²`. With `lattice` the positions are rounded down
    * to multiples of 0.5, so rect edges land on the lines of any grid whose
    * cell sides are multiples of 0.5. With `tick > 1` the timestamps are
    * rounded down to multiples of `tick` ms, so runs of objects share one
    * `t`; when `tick` divides the window, the New, Grown and Expired events
    * of several runs fire at one time. Neither option changes the RNG draws.
    */
  def stream(seed: Int, n: Int, span: Long = 3000L, ext: Double = 8.0,
             intWeights: Boolean = false, lattice: Boolean = false,
             tick: Long = 1L): IndexedSeq[SpatialObj] = {
    val rng = new Random(seed)
    def pos(): Double = {
      val v = rng.nextDouble() * ext
      if (lattice) math.floor(v * 2) / 2 else v
    }
    (0 until n).map { i =>
      val t = 10000L + (i.toDouble / n * span).toLong / tick * tick
      SpatialObj(
        i.toLong,
        if (intWeights) 1.0 + rng.nextInt(100) else 0.5 + rng.nextDouble(),
        pos(),
        pos(),
        t,
      )
    }
  }

  /** Like [[stream]] but with half the mass clustered near one hotspot, so
    * grid cells actually fill up and bound/candidate logic gets exercised.
    */
  def clusteredStream(seed: Int, n: Int, span: Long = 3000L,
                      ext: Double = 5.0): IndexedSeq[SpatialObj] = {
    val rng = new Random(seed)
    (0 until n).map { i =>
      val t = 10000L + (i.toDouble / n * span).toLong
      val (x, y) =
        if (rng.nextBoolean())
          (math.min(ext, math.max(0, ext / 3 + rng.nextGaussian() * 0.6)),
           math.min(ext, math.max(0, ext / 3 + rng.nextGaussian() * 0.6)))
        else (rng.nextDouble() * ext, rng.nextDouble() * ext)
      SpatialObj(i.toLong, 0.5 + rng.nextDouble(), x, y, t)
    }
  }

  /** A static snapshot: objects spread across current window, past window,
    * and expired territory relative to `now`.
    */
  def snapshot(seed: Int, n: Int, now: Long, windowMillis: Long,
               ext: Double = 6.0): IndexedSeq[SpatialObj] = {
    val rng = new Random(seed)
    (0 until n).map { i =>
      val t = now - (rng.nextDouble() * 2.5 * windowMillis).toLong
      SpatialObj(i.toLong, 0.5 + rng.nextDouble(), rng.nextDouble() * ext, rng.nextDouble() * ext, t)
    }
  }
}
