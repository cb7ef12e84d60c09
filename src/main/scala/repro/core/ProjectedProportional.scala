package repro.core

import scala.collection.mutable

/** Algorithm 3 (§4.3) over a dense slot space: the one kernel behind
  * [[ProportionalDense]], [[SelectiveProvenance]] (§5.1) and
  * [[GroupedProvenance]] (§5.2).
  *
  * Each vertex `v` owns a row of `numSlots` cells plus |B_v|; cell `i`
  * holds the part of `B_v` born at origins that `slotOf` maps to `i`. A
  * transfer of `r.q < |B_{r.s}|` moves the fraction `r.q / |B_{r.s}|` of
  * every cell (lines 9–10); a transfer of `r.q ≥ |B_{r.s}|` moves the whole
  * row plus a newborn fragment at `slotOf(r.s)` (line 6). A self-loop
  * relays nothing; only the shortfall `r.q − |B_{r.s}|` is born.
  *
  * A row is allocated when its vertex first holds a quantity and charged
  * `rowBytes`: space O(numSlots·|V|), time O(numSlots) per interaction.
  * The paper uses SIMD for the cell-wise ops; on the JVM the flat
  * primitive rows let HotSpot auto-vectorise the loops.
  */
abstract class ProjectedProportional(
    val numSlots: Int,
    rowBytes: Long,
    budgetBytes: Long,
) extends ProvenanceEngine {
  private val Eps = ProvenanceEngine.Eps

  /** Slot that accumulates quantities generated at `origin`. */
  protected def slotOf(origin: Long): Int

  /** Reported origin label for a slot (vertex id, group id, or α = −1). */
  protected def labelOf(slot: Int): Long

  /** One vertex's row: its slot cells and |B_v|. */
  private final class Row { val p = new Array[Double](numSlots); var total = 0.0 }

  val memory = new MemoryModel(budgetBytes)
  private val rows = mutable.LongMap.empty[Row]

  /** `v`'s slot cells, or null before `v` holds anything. */
  protected final def cellsOrNull(v: Long): Array[Double] = {
    val r = rows.getOrNull(v)
    if (r == null) null else r.p
  }

  private def row(v: Long): Row = {
    var r = rows.getOrNull(v)
    if (r == null) {
      memory.charge(rowBytes)
      r = new Row
      rows.update(v, r)
    }
    r
  }

  override def process(r: Interaction): Unit = {
    val src = rows.getOrNull(r.s)
    val bs = if (src == null) 0.0 else src.total
    if (r.s == r.d) { // self-loop: nothing is relayed, only the shortfall is born
      if (r.q > bs) { val self = row(r.s); self.p(slotOf(r.s)) += r.q - bs; self.total = r.q }
    } else if (r.q >= bs - Eps) { // relay the whole source row + newborn rest
      val dst = row(r.d)
      val pd = dst.p
      if (src != null) {
        val ps = src.p
        var i = 0
        while (i < numSlots) { pd(i) += ps(i); ps(i) = 0.0; i += 1 }
        src.total = 0.0
      }
      pd(slotOf(r.s)) += math.max(0.0, r.q - bs)
      dst.total += r.q
    } else { // proportional split of every cell
      val frac = r.q / bs
      val dst = row(r.d)
      val pd = dst.p; val ps = src.p
      var i = 0
      while (i < numSlots) {
        val m = ps(i) * frac
        pd(i) += m
        ps(i) -= m
        i += 1
      }
      src.total = bs - r.q
      dst.total += r.q
    }
  }

  override def bufferTotal(v: Long): Double = {
    val r = rows.getOrNull(v)
    if (r == null) 0.0 else r.total
  }

  override def provenance(v: Long): Seq[ProvEntry] = {
    val p = cellsOrNull(v)
    if (p == null) Nil
    else p.indices.collect { case i if p(i) > Eps => ProvEntry(labelOf(i), p(i)) }
  }

  override def vertices: Iterator[Long] =
    rows.iterator.collect { case (v, r) if r.total > Eps => v }

  override protected def addEntries(out: SnapshotRows): Unit = {
    val vs = vertices.toArray
    java.util.Arrays.sort(vs)
    vs.foreach { v =>
      val p = rows(v).p
      out.vertex(v)
      var i = 0
      while (i < numSlots) { if (p(i) > Eps) out += ProvEntry(labelOf(i), p(i)); i += 1 }
    }
  }
}

/** §4.3 — proportional provenance with dense vectors: one slot per vertex,
  * so vertices must be labelled `0 … numVertices−1` (our generators and
  * the distributed layer guarantee this). The |V| buffer cells are charged
  * once, and every row at the full 8·|V| bytes the paper's analysis
  * counts, so the O(|V|²) blow-up of §4.3 is faithfully metered.
  */
final class ProportionalDense(
    val numVertices: Int,
    budgetBytes: Long = MemoryModel.Unbounded,
) extends ProjectedProportional(numVertices, numVertices * MemoryModel.Field, budgetBytes) {
  memory.charge(numVertices * MemoryModel.BufferCellBytes)

  override protected def slotOf(origin: Long): Int = origin.toInt
  override protected def labelOf(s: Int): Long = s.toLong

  /** The raw provenance vector of `v` (zero vector if untouched) —
    * used by the Table 5 worked-example test.
    */
  def vector(v: Long): Vector[Double] =
    Option(cellsOrNull(v)).map(_.toVector).getOrElse(Vector.fill(numVertices)(0.0))
}

/** §5.1 — selective provenance: track only `tracked` vertices of interest;
  * everything else accumulates in an overflow slot reported as α = −1.
  * Each row is charged its k+1 cells plus its buffer cell.
  */
final class SelectiveProvenance(
    tracked: Seq[Long],
    budgetBytes: Long = MemoryModel.Unbounded,
) extends ProjectedProportional(
      tracked.size + 1,
      (tracked.size + 1) * MemoryModel.Field + MemoryModel.BufferCellBytes,
      budgetBytes,
    ) {
  private val slot: Map[Long, Int] = tracked.zipWithIndex.toMap
  private val labels: Array[Long] = (tracked :+ -1L).toArray

  override protected def slotOf(origin: Long): Int = slot.getOrElse(origin, tracked.size)
  override protected def labelOf(s: Int): Long = labels(s)
}

/** §5.2 — grouped provenance: origins are tracked at the granularity of
  * `numGroups` vertex groups; `groupOf` maps a vertex to its group id.
  * Each row is charged its m cells plus its buffer cell.
  */
final class GroupedProvenance(
    numGroups: Int,
    groupOf: Long => Int,
    budgetBytes: Long = MemoryModel.Unbounded,
) extends ProjectedProportional(
      numGroups, numGroups * MemoryModel.Field + MemoryModel.BufferCellBytes, budgetBytes) {
  override protected def slotOf(origin: Long): Int = groupOf(origin)
  override protected def labelOf(s: Int): Long = s.toLong
}
