package repro.core

/** Algorithm 3 with sparse (list) provenance-vector representations
  * (§4.3, "Sparse vector representations").
  *
  * Each `p_v` holds only its non-zero fragments (the [[SparseLists]]
  * kernel): an origin-sorted list while short, whose ⊕/⊖ are linear
  * merges, and an origin-indexed dense array with a bitmap of the stored
  * origins once it holds 1/8 of the origin range, reached by index. Both
  * forms meter 16 B per stored fragment, so space is O(|V|·ℓ) metered and
  * time O(|R|·ℓ) where ℓ is the mean list length — which, as §7.2 shows,
  * grows unboundedly on large mixed networks; the [[MemoryModel]] budget
  * reproduces the resulting "—" cells. A dense row's real heap is up to
  * about 4× its metered bytes (see [[SparseLists]]).
  */
final class ProportionalSparse(
    budgetBytes: Long = MemoryModel.Unbounded,
) extends ProvenanceEngine {
  val memory = new MemoryModel(budgetBytes)
  private[core] val lists = new SparseLists(memory)

  override def process(r: Interaction): Unit = lists.relay(r.s, r.d, r.q)

  override def bufferTotal(v: Long): Double = lists.total(v)

  /** `v`'s provenance as (origin, quantity) pairs in ascending origin
    * order — the same fragments as [[provenance]], without building
    * [[ProvEntry]] values, for hot loops such as the §7.6 alert scan.
    */
  def provenancePairs(v: Long): Iterator[(Long, Double)] = lists.pairs(v)

  override def provenance(v: Long): Seq[ProvEntry] = lists.provenance(v)

  override def vertices: Iterator[Long] = lists.vertices

  override protected def addEntries(rows: SnapshotRows): Unit = lists.addEntries(rows)

  /** Live (origin, quantity) entries across all lists. */
  def liveEntries: Long = lists.live

  /** Peak entry count — drives Table 8's sparse cell; only entries are metered. */
  def peakEntries: Long = memory.peakBytes / MemoryModel.PairBytes

  /** Mean list length ℓ over vertices with a non-empty list. */
  def avgListLength: Double = lists.avgListLength
}
