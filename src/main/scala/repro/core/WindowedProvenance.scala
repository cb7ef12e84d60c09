package repro.core

/** §5.3.1 — windowed proportional provenance.
  *
  * Two sparse vector sets `p^odd` and `p^even` (two [[SparseLists]]
  * stores metered by one [[MemoryModel]]) are maintained per vertex and
  * both updated at every interaction. At every odd multiple of `W`
  * interactions all `p^odd` lists are reset to `[(α, |B_v|)]` (α = −1,
  * "unknown provenance"); at even multiples the `p^even` lists are.
  * Queries read whichever set was *least recently* reset, guaranteeing
  * provenance for quantities born between W and 2·W interactions ago,
  * while the periodic resets bound the list growth.
  */
final class WindowedProvenance(
    val window: Long,
    budgetBytes: Long = MemoryModel.Unbounded,
) extends ProvenanceEngine {
  require(window > 0, "window must be positive")

  /** Artificial origin standing for "the entire vertex set". */
  val Alpha: Long = -1L

  val memory = new MemoryModel(budgetBytes)
  private[core] val odd = new SparseLists(memory)
  private[core] val even = new SparseLists(memory)
  private var processed = 0L
  private var lastResetOdd = Long.MinValue
  private var lastResetEven = Long.MinValue

  override def process(r: Interaction): Unit = {
    odd.relay(r.s, r.d, r.q)
    even.relay(r.s, r.d, r.q)
    processed += 1
    if (processed % window == 0) {
      if ((processed / window) % 2 == 1) { odd.resetAll(Alpha); lastResetOdd = processed }
      else { even.resetAll(Alpha); lastResetEven = processed }
    }
  }

  /** The currently *usable* store: the one least recently reset. */
  private def active: SparseLists = if (lastResetOdd <= lastResetEven) odd else even

  override def bufferTotal(v: Long): Double = odd.total(v)

  override def provenance(v: Long): Seq[ProvEntry] = active.provenance(v)

  override def vertices: Iterator[Long] = odd.vertices

  override protected def addEntries(rows: SnapshotRows): Unit = active.addEntries(rows)

  /** Live entries summed over both stores (the space actually held). */
  def liveEntries: Long = odd.live + even.live
}
