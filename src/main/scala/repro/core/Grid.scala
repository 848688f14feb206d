package repro.core

/** A uniform grid of `cellW×cellH` cells anchored at `(offX, offY)`
  * (Definition 6 uses `cellW = b`, `cellH = a`, zero offsets; the shifted
  * grids of MGAP-SURGE use half-cell offsets; aG2 uses `10b×10a` cells).
  *
  * Cell `(i, j)` is the closed box
  * `[offX + i·cellW, offX + (i+1)·cellW] × [offY + j·cellH, offY + (j+1)·cellH]`.
  *
  * The per-event paths key cells by one packed `Long` ([[Grid.pack]]); the
  * `(i, j)` tuple form is for reports and the Spark modules.
  */
final class Grid(val cellW: Double, val cellH: Double,
                 val offX: Double = 0.0, val offY: Double = 0.0) extends Serializable {
  require(cellW > 0 && cellH > 0, "cell size must be positive")

  // Boundary coordinates resolve to the right/upper cell via floor semantics.
  private def col(x: Double): Long = math.floor((x - offX) / cellW).toLong
  private def row(y: Double): Long = math.floor((y - offY) / cellH).toLong
  // The lowest column (row) whose closed cell reaches coordinate `x` (`y`):
  // on a grid line that is the cell left of (below) the one `col` picks.
  private def firstCol(x: Double): Long = { val i = col(x); if (offX + (i - 1) * cellW + cellW >= x) i - 1 else i }
  private def firstRow(y: Double): Long = { val j = row(y); if (offY + (j - 1) * cellH + cellH >= y) j - 1 else j }

  /** Cell containing point `(x, y)`. */
  def cellOf(x: Double, y: Double): (Long, Long) = (col(x), row(y))

  /** Packed key of the cell containing point `(x, y)`. */
  def keyOf(x: Double, y: Double): Long = Grid.pack(col(x), row(y))

  /** Closed extent of cell `(i, j)`. */
  def cellBox(key: (Long, Long)): Box = {
    val x0 = offX + key._1 * cellW
    val y0 = offY + key._2 * cellH
    Box(x0, y0, x0 + cellW, y0 + cellH)
  }

  /** Closed extent of the cell with packed key `key`. */
  def cellBox(key: Long): Box = cellBox(Grid.unpack(key))

  /** Writes the packed keys of all cells whose closed extent intersects box
    * `b` into `out` and returns how many there are; allocates nothing.
    *
    * For a box of exactly one cell size this is at most 4 cells in general
    * position (Lemma 1) and up to 9 when edges are exactly grid-aligned —
    * the conservative closed assignment keeps boundary points searchable
    * from every touching cell.
    *
    * @throws IllegalArgumentException if `out` is too short
    */
  def cellsOverlapping(b: Box, out: Array[Long]): Int = {
    val i0 = firstCol(b.x0)
    val i1 = col(b.x1)
    val j0 = firstRow(b.y0)
    val j1 = row(b.y1)
    val count = (i1 - i0 + 1) * (j1 - j0 + 1)
    require(count <= out.length, s"$b overlaps $count cells, room for ${out.length}")
    var n = 0
    var i = i0
    while (i <= i1) {
      var j = j0
      while (j <= j1) { out(n) = Grid.pack(i, j); n += 1; j += 1 }
      i += 1
    }
    n
  }

  /** The `(i, j)` form of the overload above. */
  def cellsOverlapping(b: Box): IndexedSeq[(Long, Long)] = {
    val out = new Array[Long](((col(b.x1) - firstCol(b.x0) + 1) * (row(b.y1) - firstRow(b.y0) + 1)).toInt)
    cellsOverlapping(b, out)
    out.toIndexedSeq.map(Grid.unpack)
  }
}

object Grid {
  /** Most cells a box of one cell size overlaps (grid-aligned edges). */
  val MaxOverlap = 9

  /** Packs cell `(i, j)` into one `Long`: `i` in the high 32 bits, `j` in
    * the low 32.
    *
    * @throws IllegalArgumentException if `i` or `j` is outside the `Int`
    *         range, where distinct cells would share a key
    */
  def pack(i: Long, j: Long): Long = {
    if (i != i.toInt || j != j.toInt)
      throw new IllegalArgumentException(s"cell ($i, $j) is outside the packable Int range")
    (i << 32) | (j & 0xffffffffL)
  }

  /** Cell `(i, j)` of a packed key. */
  def unpack(key: Long): (Long, Long) = (key >> 32, key.toInt.toLong)
}
