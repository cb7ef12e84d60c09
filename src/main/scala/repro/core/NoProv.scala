package repro.core

import scala.collection.mutable

/** Algorithm 1 — basic quantity propagation with no provenance tracking.
  *
  * Each vertex keeps only the scalar |B_v|. Per interaction: relay
  * min(r.q, |B_{r.s}|) buffered units and *generate* the shortfall at the
  * source before transferring it. O(1) time per interaction, O(|V|) space.
  *
  * Besides being the paper's NoProv baseline (Tables 7/8), this engine
  * exposes [[generatedBy]] — the total quantity each vertex generated —
  * which §7.3 uses to pick the top-k contributing vertices for selective
  * provenance.
  */
final class NoProv(budgetBytes: Long = MemoryModel.Unbounded) extends ProvenanceEngine {
  import NoProv.Cell

  private val cells = mutable.LongMap.empty[Cell]
  val memory = new MemoryModel(budgetBytes)

  /** Quantity generated (born) at the source by the last interaction. */
  var lastGenerated: Double = 0.0

  private def cellOf(v: Long): Cell = {
    var c = cells.getOrNull(v)
    if (c == null) {
      memory.charge(MemoryModel.BufferCellBytes)
      c = new Cell
      cells.update(v, c)
    }
    c
  }

  override def process(r: Interaction): Unit = {
    val s = cellOf(r.s)
    val relayed = math.min(r.q, s.buf)
    val born = r.q - relayed
    lastGenerated = born
    s.buf -= relayed
    if (born > 0) s.gen += born
    cellOf(r.d).buf += r.q
  }

  override def bufferTotal(v: Long): Double = {
    val c = cells.getOrNull(v)
    if (c == null) 0.0 else c.buf
  }

  override def provenance(v: Long): Seq[ProvEntry] = {
    // NoProv does not track origins: the whole buffer is of unknown
    // provenance, reported under the artificial origin α = -1.
    val q = bufferTotal(v)
    if (q > ProvenanceEngine.Eps) Seq(ProvEntry(-1L, q)) else Nil
  }

  override def vertices: Iterator[Long] =
    cells.iterator.collect { case (v, c) if c.buf > ProvenanceEngine.Eps => v }

  /** Total quantity generated at `v` over the whole run. */
  def generatedBy(v: Long): Double = {
    val c = cells.getOrNull(v)
    if (c == null) 0.0 else c.gen
  }

  /** The k vertices that generated the largest total quantities
    * (ties broken by vertex id for determinism) — the §7.3 selection.
    */
  def topGenerators(k: Int): Vector[Long] =
    cells.iterator.collect { case (v, c) if c.gen > 0 => (v, c.gen) }.toVector
      .sortBy { case (v, q) => (-q, v) }.take(k).map(_._1)
}

object NoProv {
  /** One vertex's state: |B_v| and the quantity it generated so far. The
    * meter charges only the buffer cell, as Alg. 1 needs nothing else.
    */
  private final class Cell {
    var buf = 0.0
    var gen = 0.0
  }
}
