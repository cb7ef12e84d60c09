package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The two row forms of [[SparseLists]] (origin-sorted list, origin-indexed
  * dense row) against the list-only [[ListReference]]: bit-identical
  * snapshots and equal metering on streams where rows switch form in every
  * way, and invariance under translating every vertex id.
  */
class SparseFormsSpec extends AnyFunSuite {
  private val NV = 24
  private val Window = 150L
  private val Capacity = 12

  /** `n` interactions over `nV` vertices with equal timestamps (`t = id / 3`)
    * and 15 % self-loops. Quantities span 1e-11 to 1e2, so some parts are
    * too small to store; one in 12 moves exactly |B_s| (found by replaying
    * Alg. 1), emptying long rows, and one in 12 moves all but 1e-10 of it,
    * so that the source's remainders drop.
    */
  private def stream(seed: Long, nV: Int, n: Int): Vector[Interaction] = {
    val rnd = new java.util.Random(seed)
    val buffers = new NoProv()
    Vector.tabulate(n) { i =>
      val s = rnd.nextInt(nV).toLong
      val d = if (rnd.nextDouble() < 0.15) s else rnd.nextInt(nV).toLong
      val bs = buffers.bufferTotal(s)
      val q = rnd.nextInt(12) match {
        case 0 if bs > 0 => bs
        case 1 if bs > 0 => bs * (1 - 1e-10)
        case _ => math.pow(10, rnd.nextDouble() * 13 - 11)
      }
      val r = Interaction(s, d, i / 3L, q, i.toLong)
      buffers.process(r)
      r
    }
  }

  /** v → (origin, bits of the quantity), in the engine's origin order. */
  private def bits(snap: Map[Long, Vector[(Long, Double)]]): Map[Long, Vector[(Long, Long)]] =
    snap.view.mapValues(_.map { case (o, q) => (o, java.lang.Double.doubleToLongBits(q)) }).toMap

  private def snapshotOf(e: ProvenanceEngine): Map[Long, Vector[(Long, Double)]] =
    e.vertices.map(v => v -> e.provenance(v).map(p => (p.origin, p.quantity)).toVector).toMap

  private def replay[E <: ProvenanceEngine](e: E, rs: Seq[Interaction]): E = { e.processAll(rs); e }

  (1 to 3).foreach { seed =>
    test(s"sparse, windowed and budget ≡ list-only reference, bit for bit (seed $seed)") {
      val rs = stream(seed, NV, 1500)

      val s = replay(new ProportionalSparse(), rs)
      val sRef = ListReference.sparse(rs)
      assert(bits(snapshotOf(s)) === bits(sRef.snapshot))
      assert(s.memory.peakBytes === sRef.memory.peakBytes)
      assert(s.memory.liveBytes === sRef.memory.liveBytes)

      val w = replay(new WindowedProvenance(Window), rs)
      val (wRef, wMem) = ListReference.windowed(rs, Window)
      assert(bits(snapshotOf(w)) === bits(wRef.snapshot))
      assert(w.memory.peakBytes === wMem.peakBytes)
      assert(w.memory.liveBytes === wMem.liveBytes)

      val b = replay(new BudgetProvenance(Capacity), rs)
      val bRef = ListReference.budget(rs, Capacity)
      assert(bits(snapshotOf(b)) === bits(bRef.snapshot))
      assert(b.memory.peakBytes === bRef.memory.peakBytes)
      assert(b.memory.liveBytes === bRef.memory.liveBytes)

      // Every switch of form happened on this stream.
      assert(s.lists.densified > 0 && s.lists.listedByMove > 0, "sparse")
      assert(w.odd.listedByReset + w.even.listedByReset > 0, "windowed reset")
      assert(w.odd.densified + w.even.densified > w.odd.listedByReset + w.even.listedByReset,
             "windowed rows turn dense again after a reset")
      assert(b.lists.listedByShrink > 0, "budget shrink of a dense row")
    }
  }

  test("meters agree with the reference after every interaction") {
    val rs = stream(4, NV, 900)
    val s = new ProportionalSparse(); val sRef = new ListReference(new MemoryModel())
    rs.foreach { r =>
      s.process(r); sRef.relay(r.s, r.d, r.q)
      assert(s.memory.liveBytes === sRef.memory.liveBytes, s"at ${r.id}")
      assert(s.memory.peakBytes === sRef.memory.peakBytes, s"at ${r.id}")
    }
    assert(s.lists.densified > 0 && s.lists.listedByMove > 0)
  }

  test("translating every vertex id by 2^40 changes no value and no peak") {
    val shift = 1L << 40
    def shifted(rs: Seq[Interaction]) = rs.map(r => r.copy(s = r.s + shift, d = r.d + shift))
    def back(snap: Map[Long, Vector[(Long, Double)]]) = snap.map { case (v, ps) =>
      (v - shift) -> ps.map { case (o, q) => (if (o == -1L) o else o - shift, q) }
    }
    (1 to 3).foreach { seed =>
      val rs = stream(seed, NV, 1500)
      val pairs = Seq[(String, () => ProvenanceEngine)](
        "sparse" -> (() => new ProportionalSparse()),
        "windowed" -> (() => new WindowedProvenance(Window)),
        "budget" -> (() => new BudgetProvenance(Capacity)),
      ).map { case (name, make) => (name, replay(make(), rs), replay(make(), shifted(rs))) }
      pairs.foreach { case (name, plain, moved) =>
        assert(bits(back(snapshotOf(moved))) === bits(snapshotOf(plain)), s"$name seed $seed")
        assert(moved.memory.peakBytes === plain.memory.peakBytes, s"$name seed $seed")
      }
      val (s, s2) = (pairs(0)._2.asInstanceOf[ProportionalSparse],
                     pairs(0)._3.asInstanceOf[ProportionalSparse])
      assert(s2.lists.densified === s.lists.densified, s"seed $seed")
      // With α = −1 in the range, the shifted origins span over 2^40 ids:
      // after its first reset a windowed store keeps every row a list.
      val (w, w2) = (pairs(1)._2.asInstanceOf[WindowedProvenance],
                     pairs(1)._3.asInstanceOf[WindowedProvenance])
      assert(w2.odd.densified + w2.even.densified < w.odd.densified + w.even.densified,
             s"seed $seed")
      assert(w2.odd.densified > 0, s"seed $seed")
    }
  }
}
