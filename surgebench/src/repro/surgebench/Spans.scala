package repro.surgebench

import java.io.{BufferedOutputStream, DataOutputStream, FileOutputStream}
import java.lang.management.ManagementFactory

/** Allocated bytes of the calling thread, from HotSpot's per-thread TLAB
  * accounting (cheap enough to read around every traced call).
  */
object Alloc {
  private val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  def now(): Long = mx.getCurrentThreadAllocatedBytes
}

/** In-memory span recorder for the traced run.
  *
  * A span is one call into a layer, recorded from the benchmark's side of
  * the call: layer name, the span that caused it (-1 for a root), the id
  * shared by every span of one event (the event's index in the stream),
  * start/end in `System.nanoTime` and the bytes the thread allocated inside
  * it. Spans live in primitive arrays so that recording allocates nothing;
  * [[write]] dumps them once the run is over.
  */
final class Spans(capacity: Int) {
  import Spans._

  private val layer  = new Array[Byte](capacity)
  private val parent = new Array[Int](capacity)
  private val root   = new Array[Long](capacity)
  private val start  = new Array[Long](capacity)
  private val stop   = new Array[Long](capacity)
  private val bytes  = new Array[Long](capacity)
  private var size   = 0

  /** Number of spans recorded so far; spans from here on belong to what runs next. */
  def mark: Int = size

  /** Opens a span and returns its handle. */
  def begin(l: Int, par: Int, id: Long): Int = {
    require(size < capacity, "span buffer full")
    val s = size
    size += 1
    layer(s) = l.toByte
    parent(s) = par
    root(s) = id
    bytes(s) = -Alloc.now()
    start(s) = System.nanoTime()
    s
  }

  def end(s: Int): Unit = {
    stop(s) = System.nanoTime()
    bytes(s) += Alloc.now()
  }

  /** Per-layer totals over spans `[from, until)`: span count, inclusive and
    * self nanoseconds, self allocated bytes. Self = the span minus the part
    * its children cover.
    */
  def totals(from: Int, until: Int): Array[LayerTotal] = {
    val childNs    = new Array[Long](size)
    val childBytes = new Array[Long](size)
    var s = from
    while (s < until) {
      val p = parent(s)
      if (p >= 0) { childNs(p) += stop(s) - start(s); childBytes(p) += bytes(s) }
      s += 1
    }
    val out = Array.tabulate(Names.length)(i => new LayerTotal(Names(i)))
    s = from
    while (s < until) {
      val t = out(layer(s))
      val d = stop(s) - start(s)
      t.count += 1
      t.totalNs += d
      t.selfNs += d - childNs(s)
      t.selfBytes += bytes(s) - childBytes(s)
      s += 1
    }
    out
  }

  /** Writes every span as a fixed-width big-endian record after a text
    * header naming the layers: `layer:u8 parent:i32 id:i64 start:i64
    * end:i64 allocBytes:i64`.
    */
  def write(path: String): Unit = {
    val f = new java.io.File(path)
    Option(f.getParentFile).foreach(_.mkdirs())
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(f), 1 << 16))
    try {
      out.write(s"surgebench-spans v1 $size ${Names.mkString(",")}\n".getBytes("UTF-8"))
      var s = 0
      while (s < size) {
        out.writeByte(layer(s))
        out.writeInt(parent(s))
        out.writeLong(root(s))
        out.writeLong(start(s))
        out.writeLong(stop(s))
        out.writeLong(bytes(s))
        s += 1
      }
    } finally out.close()
  }
}

final class LayerTotal(val name: String) {
  var count: Long     = 0L
  var totalNs: Long   = 0L
  var selfNs: Long    = 0L
  var selfBytes: Long = 0L
}

object Spans {
  final val Event            = 0
  final val EventStreamNext  = 1
  final val CellCspotProcess = 2
  final val CellCspotQuery   = 3
  final val GapSurgeProcess  = 4
  final val GapSurgeTop      = 5
  final val KCellCspotEvent  = 6
  final val Check            = 7
  final val SweepLineSweep   = 8

  val Names: Array[String] = Array(
    "event", "eventstream.next", "cellcspot.process", "cellcspot.query",
    "gapsurge.process", "gapsurge.top", "kcellcspot.onEvent", "check", "sweepline.burstyPoint",
  )
}
