package repro.stream

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen
import repro.core._
import scala.collection.mutable

class EventStreamSpec extends AnyFunSuite {
  private val W = 1000L

  test("a drained stream emits exactly 3 events per object") {
    val objs = TestGen.stream(1, 50)
    val evts = EventStream.fromObjects(objs, W).toVector
    assert(evts.length == 150)
    assert(evts.count(_.kind == EventKind.New) == 50)
    assert(evts.count(_.kind == EventKind.Grown) == 50)
    assert(evts.count(_.kind == EventKind.Expired) == 50)
  }

  test("event times are non-decreasing") {
    val evts = EventStream.fromObjects(TestGen.stream(2, 80), W).toVector
    evts.sliding(2).foreach {
      case Seq(a, b) => assert(a.at <= b.at, s"$a then $b")
      case _         => ()
    }
  }

  test("transition times are t+W and t+2W") {
    val evts = EventStream.fromObjects(TestGen.stream(3, 40), W).toVector
    evts.foreach { e =>
      e.kind match {
        case EventKind.New     => assert(e.at == e.obj.t)
        case EventKind.Grown   => assert(e.at == e.obj.t + W)
        case EventKind.Expired => assert(e.at == e.obj.t + 2 * W)
      }
    }
  }

  test("pending transitions fire before arrivals with the same timestamp") {
    val objs = IndexedSeq(
      SpatialObj(0, 1, 0, 0, 1000L),
      SpatialObj(1, 1, 1, 1, 2000L), // arrives exactly when obj 0 grows
      SpatialObj(2, 1, 2, 2, 3000L), // arrives exactly when obj 0 expires
    )
    val evts = EventStream.fromObjects(objs, W).toVector
    val grown0  = evts.indexWhere(e => e.kind == EventKind.Grown && e.obj.id == 0)
    val new1    = evts.indexWhere(e => e.kind == EventKind.New && e.obj.id == 1)
    val exp0    = evts.indexWhere(e => e.kind == EventKind.Expired && e.obj.id == 0)
    val new2    = evts.indexWhere(e => e.kind == EventKind.New && e.obj.id == 2)
    assert(grown0 < new1)
    assert(exp0 < new2)
  }

  test("expired precedes grown at equal firing times") {
    val objs = IndexedSeq(
      SpatialObj(0, 1, 0, 0, 1000L), // expires at 3000
      SpatialObj(1, 1, 1, 1, 2000L), // grows at 3000
      SpatialObj(2, 1, 2, 2, 5000L),
    )
    val evts = EventStream.fromObjects(objs, W).toVector
    val exp0   = evts.indexWhere(e => e.kind == EventKind.Expired && e.obj.id == 0)
    val grown1 = evts.indexWhere(e => e.kind == EventKind.Grown && e.obj.id == 1)
    assert(exp0 < grown1)
  }

  test("drainTail=false stops at the last arrival") {
    val objs = TestGen.stream(4, 30)
    val evts = EventStream.fromObjects(objs, W, drainTail = false).toVector
    assert(evts.last.kind == EventKind.New)
    assert(evts.count(_.kind == EventKind.New) == 30)
    assert(evts.length < 90)
  }

  for (seed <- 0 until 10)
    test(s"window-membership invariant holds after every event, seed $seed") {
      val objs = TestGen.stream(seed, 60, span = 2500L)
      val live = mutable.HashMap.empty[Long, SpatialObj]
      EventStream.fromObjects(objs, W).foreach { e =>
        e.kind match {
          case EventKind.New     => live(e.obj.id) = e.obj
          case EventKind.Grown   => ()
          case EventKind.Expired => live.remove(e.obj.id)
        }
        // every live object is in a window; every processed Grown object is Past
        live.values.foreach { o =>
          assert(Win.of(o.t, e.at, W) != Win.Out, s"live obj $o is Out at ${e.at}")
        }
        e.kind match {
          case EventKind.New     => assert(Win.of(e.obj.t, e.at, W) == Win.Cur)
          case EventKind.Grown   => assert(Win.of(e.obj.t, e.at, W) == Win.Past)
          case EventKind.Expired => assert(Win.of(e.obj.t, e.at, W) == Win.Out)
        }
      }
      assert(live.isEmpty)
    }

  test("deterministic: two iterations yield identical sequences") {
    val objs = TestGen.stream(6, 50)
    val a = EventStream.fromObjects(objs, W).toVector
    val b = EventStream.fromObjects(objs, W).toVector
    assert(a == b)
  }

  test("an arrival earlier than its predecessor is rejected") {
    val objs = IndexedSeq(
      SpatialObj(0, 1, 0, 0, 1000L),
      SpatialObj(1, 1, 1, 1, 1500L),
      SpatialObj(2, 1, 2, 2, 1400L),
    )
    val ex = intercept[IllegalArgumentException](EventStream.fromObjects(objs, W).toVector)
    Seq("object 2", "t=1400", "object 1", "t=1500").foreach(part => assert(ex.getMessage.contains(part)))
  }

  private val malformed = Seq(
    "a NaN x"             -> SpatialObj(7, 1, Double.NaN, 0, 1200L),
    "an infinite y"       -> SpatialObj(7, 1, 0, Double.PositiveInfinity, 1200L),
    "a NaN weight"        -> SpatialObj(7, Double.NaN, 0, 0, 1200L),
    "an infinite weight"  -> SpatialObj(7, Double.PositiveInfinity, 0, 0, 1200L),
    "a zero weight"       -> SpatialObj(7, 0, 0, 0, 1200L),
    "a negative weight"   -> SpatialObj(7, -2, 0, 0, 1200L),
  )

  for ((name, bad) <- malformed)
    test(s"an arrival with $name is rejected, naming its id") {
      val objs = IndexedSeq(SpatialObj(0, 1, 0, 0, 1000L), bad, SpatialObj(8, 1, 1, 1, 1500L))
      val ex   = intercept[IllegalArgumentException](EventStream.fromObjects(objs, W).toVector)
      assert(ex.getMessage.contains("object 7"), ex.getMessage)
    }

  /** All 3n events stably sorted by (time, Expired < Grown < New, arrival
    * index); without a drained tail, cut after the last `New`.
    */
  private def reference(objs: IndexedSeq[SpatialObj], drainTail: Boolean): Vector[Event] = {
    val all = objs.zipWithIndex.flatMap { case (o, i) =>
      Seq((Event(o, EventKind.New, o.t), 2, i),
          (Event(o, EventKind.Grown, o.t + W), 1, i),
          (Event(o, EventKind.Expired, o.t + 2 * W), 0, i))
    }.sortBy { case (e, rank, i) => (e.at, rank, i) }.map(_._1).toVector
    if (drainTail) all else all.take(all.lastIndexWhere(_.kind == EventKind.New) + 1)
  }

  /** `n` arrivals in runs of equal timestamps, on a lattice of W/4 so that
    * many arrivals land exactly on earlier objects' t+W and t+2W.
    */
  private def runs(seed: Int, n: Int, maxRun: Int): IndexedSeq[SpatialObj] = {
    val rng = new java.util.Random(seed)
    var t   = 0L
    (0 until n).map { i =>
      if (i > 0 && rng.nextInt(maxRun) == 0) t += (W / 4) * rng.nextInt(3)
      SpatialObj(i.toLong, 1, 0, 0, t)
    }
  }

  private val orderCases = Seq(
    "equal-timestamp runs on a W/4 lattice" -> runs(1, 300, 4),
    "arrivals exactly on t+W and t+2W"      -> (0 until 40).map(i => SpatialObj(i.toLong, 1, 0, 0, (i / 2) * (W / 2))),
    "a long window that grows the ring"     -> runs(2, 3000, 400),
    "random continuous times"               -> TestGen.stream(7, 200, span = 2500L),
  )

  for ((name, objs) <- orderCases; drain <- Seq(true, false))
    test(s"event order matches the sorted reference: $name, drainTail=$drain") {
      assert(EventStream.fromObjects(objs, W, drainTail = drain).toVector == reference(objs, drain))
    }
}
