package repro.core

/** Algorithm 3 — proportional selection with dense provenance vectors.
  *
  * Every vertex `v` owns a |V|-length vector `p_v`; position `i` holds the
  * fragment of `B_v` that originates from vertex `i`. A transfer of
  * `r.q < |B_{r.s}|` moves the fraction `r.q / |B_{r.s}|` of *every*
  * position (lines 9–10); a transfer of `r.q ≥ |B_{r.s}|` moves the whole
  * vector plus a newborn fragment at position `r.s` (line 6). A self-loop
  * relays nothing; only the shortfall `r.q − |B_{r.s}|` is born.
  *
  * Vertices must be labelled `0 … numVertices−1` (our generators and the
  * distributed layer guarantee this; arbitrary ids can be dictionary-
  * encoded by the caller). Rows are allocated lazily but charged at the
  * full 8·|V| bytes the paper's analysis counts, so the O(|V|²) blow-up
  * of §4.3 is faithfully metered. The paper exploits SIMD for the
  * vector-wise ops; on the JVM the same flat primitive arrays let HotSpot
  * auto-vectorise the loops.
  */
final class ProportionalDense(
    val numVertices: Int,
    budgetBytes: Long = MemoryModel.Unbounded,
) extends ProvenanceEngine {
  private val Eps = ProvenanceEngine.Eps

  val memory = new MemoryModel(budgetBytes)
  private val p = new Array[Array[Double]](numVertices)
  private val totals = new Array[Double](numVertices)
  memory.charge(numVertices.toLong * MemoryModel.BufferCellBytes)

  private def row(v: Int): Array[Double] = {
    var r = p(v)
    if (r == null) {
      memory.charge(numVertices.toLong * MemoryModel.Field)
      r = new Array[Double](numVertices)
      p(v) = r
    }
    r
  }

  override def process(r: Interaction): Unit = {
    val s = r.s.toInt; val d = r.d.toInt
    val bs = totals(s)
    if (s == d) { // self-loop: nothing is relayed, only the shortfall is born
      if (r.q > bs) { row(s)(s) += r.q - bs; totals(s) = r.q }
    } else if (r.q >= bs - Eps) { // relay the whole source buffer + newborn rest
      val pd = row(d)
      val ps = p(s)
      if (ps != null) {
        var i = 0
        while (i < numVertices) { pd(i) += ps(i); ps(i) = 0.0; i += 1 }
      }
      pd(s) += math.max(0.0, r.q - bs)
      totals(s) = 0.0
      totals(d) += r.q
    } else { // proportional split of every fragment
      val frac = r.q / bs
      val pd = row(d)
      val ps = row(s)
      var i = 0
      while (i < numVertices) {
        val m = ps(i) * frac
        pd(i) += m
        ps(i) -= m
        i += 1
      }
      totals(s) = bs - r.q
      totals(d) += r.q
    }
  }

  override def bufferTotal(v: Long): Double = totals(v.toInt)

  override def provenance(v: Long): Seq[ProvEntry] = {
    val r = p(v.toInt)
    if (r == null) Nil
    else r.indices.collect { case i if r(i) > Eps => ProvEntry(i.toLong, r(i)) }
  }

  override def vertices: Iterator[Long] =
    Iterator.range(0, numVertices).filter(totals(_) > Eps).map(_.toLong)

  /** The raw provenance vector of `v` (zero vector if untouched) —
    * used by the Table 5 worked-example test.
    */
  def vector(v: Long): Vector[Double] =
    Option(p(v.toInt)).map(_.toVector).getOrElse(Vector.fill(numVertices)(0.0))
}
