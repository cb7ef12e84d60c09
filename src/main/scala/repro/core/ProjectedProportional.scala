package repro.core

import scala.collection.mutable

/** Shared machinery for §5.1 (selective) and §5.2 (grouped) provenance:
  * Algorithm 3 over *slots* instead of individual vertices.
  *
  * Each vertex keeps a `numSlots`-length dense vector; an origin vertex
  * is mapped to a slot by `slotOf` (selective: its position among the k
  * tracked vertices, or the overflow slot k; grouped: its group id).
  * Space O(numSlots·|V|), time O(numSlots) per interaction.
  */
abstract class ProjectedProportional(
    val numSlots: Int,
    budgetBytes: Long,
) extends ProvenanceEngine {
  private val Eps = ProvenanceEngine.Eps

  /** Slot that accumulates quantities generated at `origin`. */
  protected def slotOf(origin: Long): Int

  /** Reported origin label for a slot (vertex id, group id, or α = −1). */
  protected def labelOf(slot: Int): Long

  val memory = new MemoryModel(budgetBytes)
  private val p = mutable.LongMap.empty[Array[Double]]
  private val totals = mutable.LongMap.empty[Double]

  private def row(v: Long): Array[Double] =
    p.getOrElseUpdate(v, {
      memory.charge(numSlots.toLong * MemoryModel.Field + MemoryModel.BufferCellBytes)
      new Array[Double](numSlots)
    })

  override def process(r: Interaction): Unit = {
    val bs = totals.getOrElse(r.s, 0.0)
    if (r.s == r.d) { // self-loop: nothing is relayed, only the shortfall is born
      if (r.q > bs) { row(r.s)(slotOf(r.s)) += r.q - bs; totals(r.s) = r.q }
    } else if (r.q >= bs - Eps) {
      val pd = row(r.d)
      p.get(r.s).foreach { ps =>
        var i = 0
        while (i < numSlots) { pd(i) += ps(i); ps(i) = 0.0; i += 1 }
      }
      pd(slotOf(r.s)) += math.max(0.0, r.q - bs)
      totals(r.s) = 0.0
      totals(r.d) = totals.getOrElse(r.d, 0.0) + r.q
    } else {
      val frac = r.q / bs
      val pd = row(r.d)
      val ps = row(r.s)
      var i = 0
      while (i < numSlots) {
        val m = ps(i) * frac
        pd(i) += m
        ps(i) -= m
        i += 1
      }
      totals(r.s) = bs - r.q
      totals(r.d) = totals.getOrElse(r.d, 0.0) + r.q
    }
  }

  override def bufferTotal(v: Long): Double = totals.getOrElse(v, 0.0)

  override def provenance(v: Long): Seq[ProvEntry] =
    p.get(v)
      .map { row =>
        row.indices.collect {
          case i if row(i) > Eps => ProvEntry(labelOf(i), row(i))
        }.toVector
      }
      .getOrElse(Nil)

  override def vertices: Iterator[Long] =
    totals.iterator.collect { case (v, q) if q > Eps => v }
}

/** §5.1 — selective provenance: track only `tracked` vertices of interest;
  * everything else accumulates in an overflow slot reported as α = −1.
  */
final class SelectiveProvenance(
    tracked: Seq[Long],
    budgetBytes: Long = MemoryModel.Unbounded,
) extends ProjectedProportional(tracked.size + 1, budgetBytes) {
  private val slot: Map[Long, Int] = tracked.zipWithIndex.toMap
  private val labels: Array[Long] = (tracked :+ -1L).toArray

  override protected def slotOf(origin: Long): Int = slot.getOrElse(origin, tracked.size)
  override protected def labelOf(s: Int): Long = labels(s)
}

/** §5.2 — grouped provenance: origins are tracked at the granularity of
  * `numGroups` vertex groups; `groupOf` maps a vertex to its group id.
  */
final class GroupedProvenance(
    numGroups: Int,
    groupOf: Long => Int,
    budgetBytes: Long = MemoryModel.Unbounded,
) extends ProjectedProportional(numGroups, budgetBytes) {
  override protected def slotOf(origin: Long): Int = groupOf(origin)
  override protected def labelOf(s: Int): Long = s.toLong
}
