package repro.core

/** Deterministic random TIN streams for property-style tests. */
object TestTins {

  /** `n` interactions among `nV` vertices, quantities in (0, maxQ].
    * `intQ = true` draws integer quantities (exact arithmetic, no float
    * tolerance needed for the ordered policies). A share `selfLoopFrac`
    * of the interactions are self-loops `s → s`; at 0 no extra draw is
    * made, so the stream is the same as without the parameter.
    */
  def random(seed: Long, nV: Int, n: Int, maxQ: Double = 10.0,
             intQ: Boolean = false, selfLoopFrac: Double = 0.0): Vector[Interaction] = {
    val rnd = new java.util.Random(seed)
    Vector.tabulate(n) { i =>
      val s = rnd.nextInt(nV)
      var d = rnd.nextInt(nV)
      if (d == s) d = (d + 1) % nV
      val q =
        if (intQ) (rnd.nextInt(maxQ.toInt.max(1)) + 1).toDouble
        else rnd.nextDouble() * maxQ + 1e-6
      if (selfLoopFrac > 0 && rnd.nextDouble() < selfLoopFrac) d = s
      Interaction(s.toLong, d.toLong, i.toLong, q, i.toLong)
    }
  }

  /** Aggregate an engine's snapshot to (vertex, origin) → quantity. */
  def originTotals(e: ProvenanceEngine): Map[(Long, Long), Double] =
    e.snapshot()
      .groupBy { case (v, entry) => (v, entry.origin) }
      .view
      .mapValues(_.map(_._2.quantity).sum)
      .toMap

  /** Assert two (key → double) maps are equal within `tol` on the union
    * of their supports.
    */
  def assertMapsEqual[K](a: Map[K, Double], b: Map[K, Double], tol: Double = 1e-6,
                         hint: String = ""): Unit = {
    val keys = a.keySet ++ b.keySet
    keys.foreach { k =>
      val x = a.getOrElse(k, 0.0); val y = b.getOrElse(k, 0.0)
      assert(math.abs(x - y) <= tol, s"$hint key $k: $x vs $y")
    }
  }

  /** Fresh instances of all 11 paper systems (dense sized for vertices
    * 0..nV-1; small selective, grouped, budget and window parameters, so
    * that α slots, shrinks and resets all occur).
    */
  def allEngines(nV: Int): Seq[(String, ProvenanceEngine)] = Seq(
    "NoProv" -> new NoProv(),
    "LRB" -> new OrderedEngine(Policy.LeastRecentlyBorn),
    "MRB" -> new OrderedEngine(Policy.MostRecentlyBorn),
    "LIFO" -> new OrderedEngine(Policy.Lifo),
    "FIFO" -> new OrderedEngine(Policy.Fifo),
    "PropDense" -> new ProportionalDense(nV),
    "PropSparse" -> new ProportionalSparse(),
    "Selective" -> new SelectiveProvenance(Seq(0L, 1L)),
    "Grouped" -> new GroupedProvenance(3, v => (v % 3).toInt),
    "Budget" -> new BudgetProvenance(capacity = 3),
    "Windowed" -> new WindowedProvenance(window = 25),
  )

  /** Replays `rs` on `e` and checks the mass ledger against Alg. 1
    * ([[NoProv]]): per vertex Σ provenance = |B_v| = NoProv's buffer, and
    * Σ generated = Σ_v |B_v| = Σ provenance over the whole snapshot.
    */
  def massLedger(e: ProvenanceEngine, rs: Seq[Interaction], hint: String = ""): Unit = {
    val ref = new NoProv(); ref.processAll(rs)
    e.processAll(rs)
    val tol = 1e-9 * math.max(1.0, rs.map(_.q).sum)
    val vs = rs.flatMap(r => Seq(r.s, r.d)).distinct
    vs.foreach { v =>
      val prov = e.provenance(v).map(_.quantity).sum
      assert(math.abs(prov - e.bufferTotal(v)) <= tol &&
               math.abs(e.bufferTotal(v) - ref.bufferTotal(v)) <= tol,
             s"$hint v$v: Σprov $prov, |B_v| ${e.bufferTotal(v)}, NoProv ${ref.bufferTotal(v)}")
    }
    val generated = vs.map(ref.generatedBy).sum
    val buffered = vs.map(e.bufferTotal).sum
    val provenance = e.snapshot().map(_._2.quantity).sum
    assert(math.abs(generated - buffered) <= tol && math.abs(buffered - provenance) <= tol,
           s"$hint generated $generated, buffered $buffered, provenance $provenance")
  }
}
