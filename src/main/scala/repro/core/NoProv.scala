package repro.core

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
  *
  * State is indexed by vertex id, `0 until Interaction.VertexLimit`: two
  * growable `Array[Double]`s (|B_v| and the quantity `v` generated) and a
  * bitmap of the touched vertices. The meter charges one buffer cell on a
  * vertex's first touch, as Alg. 1 needs nothing else.
  */
final class NoProv(budgetBytes: Long = MemoryModel.Unbounded) extends ProvenanceEngine {
  private val Eps = ProvenanceEngine.Eps

  private var buf = new Array[Double](64)
  private var gen = new Array[Double](64)
  private var touched = new Array[Long](1)
  val memory = new MemoryModel(budgetBytes)

  /** Quantity generated (born) at the source by the last interaction. */
  var lastGenerated: Double = 0.0

  /** Grows the arrays to hold `r`'s endpoints; rejects an id outside the
    * vertex domain.
    */
  private def reach(r: Interaction): Unit = {
    val top = Interaction.checkIds(r)
    if (top >= buf.length) {
      val n = Interaction.roomFor(top)
      buf = java.util.Arrays.copyOf(buf, n)
      gen = java.util.Arrays.copyOf(gen, n)
      touched = java.util.Arrays.copyOf(touched, (n + 63) >>> 6)
    }
  }

  /** Charges `v`'s buffer cell on its first touch. */
  private def touch(v: Int): Unit = {
    val bit = 1L << v
    if ((touched(v >>> 6) & bit) == 0) {
      memory.charge(MemoryModel.BufferCellBytes)
      touched(v >>> 6) |= bit
    }
  }

  override def process(r: Interaction): Unit = {
    if ((r.s | r.d) < 0 || r.s >= buf.length || r.d >= buf.length) reach(r)
    val s = r.s.toInt; val d = r.d.toInt
    touch(s)
    val relayed = math.min(r.q, buf(s))
    val born = r.q - relayed
    lastGenerated = born
    buf(s) -= relayed
    if (born > 0) gen(s) += born
    touch(d)
    buf(d) += r.q
  }

  private def at(a: Array[Double], v: Long): Double =
    if (v >= 0 && v < a.length) a(v.toInt) else 0.0

  override def bufferTotal(v: Long): Double = at(buf, v)

  override def provenance(v: Long): Seq[ProvEntry] = {
    // NoProv does not track origins: the whole buffer is of unknown
    // provenance, reported under the artificial origin α = -1.
    val q = bufferTotal(v)
    if (q > Eps) Seq(ProvEntry(-1L, q)) else Nil
  }

  override def vertices: Iterator[Long] =
    Iterator.range(0, buf.length).filter(buf(_) > Eps).map(_.toLong)

  override protected def addEntries(rows: SnapshotRows): Unit = {
    var v = 0
    while (v < buf.length) {
      if (buf(v) > Eps) { rows.vertex(v.toLong); rows += ProvEntry(-1L, buf(v)) }
      v += 1
    }
  }

  /** Total quantity generated at `v` over the whole run. */
  def generatedBy(v: Long): Double = at(gen, v)

  /** The k vertices that generated the largest total quantities
    * (ties broken by vertex id for determinism) — the §7.3 selection.
    */
  def topGenerators(k: Int): Vector[Long] =
    Iterator.range(0, gen.length).filter(gen(_) > 0).map(v => (v.toLong, gen(v))).toVector
      .sortBy { case (v, q) => (-q, v) }.take(k).map(_._1)
}
