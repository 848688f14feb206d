package repro.surgebench

import java.lang.reflect.{Field, Modifier}
import scala.collection.mutable

/** Bytes reachable from a set of roots, estimated from field layouts for a
  * 64-bit HotSpot JVM with compressed references (12-byte object headers,
  * 16-byte array headers, 4-byte references, 8-byte alignment; field
  * packing gaps ignored).
  *
  * Unlike a heap reading after `System.gc()`, the result depends only on
  * the object graph, so the same detector state always measures the same.
  * Objects for which `input(o)` holds belong to the input stream: they and
  * everything behind them are not counted.
  */
object DeepSize {
  private final class Layout(val shallow: Long, val refs: Array[Field])

  private val layouts = mutable.HashMap.empty[Class[_], Layout]

  private def align(n: Long): Long = (n + 7) & ~7L

  private def primSize(c: Class[_]): Int =
    if (c == java.lang.Long.TYPE || c == java.lang.Double.TYPE) 8
    else if (c == java.lang.Integer.TYPE || c == java.lang.Float.TYPE) 4
    else if (c == java.lang.Short.TYPE || c == java.lang.Character.TYPE) 2
    else 1

  private def layout(c: Class[_]): Layout = layouts.getOrElseUpdate(c, {
    var size = 12L
    val refs = mutable.ArrayBuffer.empty[Field]
    var k: Class[_] = c
    while (k != null) {
      k.getDeclaredFields.foreach { f =>
        if (!Modifier.isStatic(f.getModifiers)) {
          if (f.getType.isPrimitive) size += primSize(f.getType)
          else {
            size += 4
            // Fields of JDK classes may be closed to reflection; those
            // objects count with their own fields only.
            if (scala.util.Try(f.setAccessible(true)).isSuccess) refs += f
          }
        }
      }
      k = k.getSuperclass
    }
    new Layout(align(size), refs.toArray)
  })

  def of(roots: Seq[AnyRef], input: AnyRef => Boolean): Long = {
    val seen  = new java.util.IdentityHashMap[AnyRef, AnyRef]
    val stack = mutable.Stack.empty[AnyRef]
    var bytes = 0L
    def push(o: AnyRef): Unit =
      if (o != null && !input(o) && seen.put(o, o) == null) stack.push(o)
    roots.foreach(push)
    while (stack.nonEmpty) {
      val o = stack.pop()
      val c = o.getClass
      if (c.isArray) {
        val n = java.lang.reflect.Array.getLength(o)
        val e = c.getComponentType
        if (e.isPrimitive) bytes += align(16L + n.toLong * primSize(e))
        else {
          bytes += align(16L + 4L * n)
          val a = o.asInstanceOf[Array[AnyRef]]
          var i = 0
          while (i < n) { push(a(i)); i += 1 }
        }
      } else {
        val l = layout(c)
        bytes += l.shallow
        l.refs.foreach(f => push(f.get(o)))
      }
    }
    bytes
  }
}
