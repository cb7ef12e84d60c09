package repro.core

/** §5.3.2 — budget-based proportional provenance.
  *
  * Sparse per-vertex lists (the [[SparseLists]] kernel) capped at
  * `capacity` (C) entries. When a merge pushes a list past C, it is
  * *shrunk*: the `⌈f·C⌉` non-α entries with the largest quantities are
  * kept and the removed mass is folded into the artificial-origin entry
  * `(α, ·)` (α = −1, "unknown source"), as in the paper's worked example
  * (C = 5, f = 0.6). Space is O(|V|·C).
  *
  * Shrink statistics (Table 9) are tracked per vertex: how many times
  * each buffer shrank and which buffers shrank at least once.
  */
final class BudgetProvenance(
    val capacity: Int,
    val keepFraction: Double = 0.6,
    budgetBytes: Long = MemoryModel.Unbounded,
) extends ProvenanceEngine {
  require(capacity >= 2, "capacity must fit at least one entry plus α")
  require(keepFraction > 0 && keepFraction < 1, "keepFraction in (0,1)")

  /** Artificial origin standing for discarded provenance mass. */
  val Alpha: Long = -1L

  val memory = new MemoryModel(budgetBytes)
  private[core] val lists = new SparseLists(memory)
  private val keep = math.ceil(keepFraction * capacity).toInt

  override def process(r: Interaction): Unit = {
    lists.relay(r.s, r.d, r.q)
    if (lists.size(r.d) > capacity) lists.shrink(r.d, keep, Alpha)
  }

  override def bufferTotal(v: Long): Double = lists.total(v)

  override def provenance(v: Long): Seq[ProvEntry] = lists.provenance(v)

  override def vertices: Iterator[Long] = lists.vertices

  override protected def addEntries(rows: SnapshotRows): Unit = lists.addEntries(rows)

  /** Live (origin, quantity) entries across all lists. */
  def liveEntries: Long = lists.live

  /** `f` of the shrink counts of the non-empty buffers, over their number. */
  private def perNonEmpty(f: Vector[Long] => Double): Double = {
    val shrinks = vertices.map(lists.shrinksOf).toVector
    if (shrinks.isEmpty) 0.0 else f(shrinks) / shrinks.size
  }

  /** Table 9, column "avg. shrinks": mean shrink count over vertices with
    * a non-empty buffer at the end of the run.
    */
  def avgShrinks: Double = perNonEmpty(_.sum.toDouble)

  /** Table 9, column "% vertices": share of non-empty buffers shrunk at
    * least once, in percent.
    */
  def pctVerticesShrunk: Double = perNonEmpty(100.0 * _.count(_ > 0))

  /** Direct lookup used by tests. */
  def shrinksOf(v: Long): Long = lists.shrinksOf(v)
}
