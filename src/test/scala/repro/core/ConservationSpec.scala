package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Mass conservation of all 11 systems (self-loops included), the
  * metering of the sparse-list engines (sparse, windowed, budget) and the
  * peaks of the dense-slot engines (dense, selective, grouped).
  */
class ConservationSpec extends AnyFunSuite {

  test("self-loop probe: Σprov(v) = |B_v| = NoProv's buffer on all 11 engines") {
    val probe = Interaction.seq((0L, 1L, 1L, 5.0), (1L, 1L, 2L, 2.0), (1L, 1L, 3L, 10.0))
    TestTins.allEngines(2).foreach { case (name, e) =>
      val ref = new NoProv()
      probe.foreach { r =>
        e.process(r); ref.process(r)
        (0L to 1L).foreach { v =>
          val prov = e.provenance(v).map(_.quantity).sum
          assert(math.abs(prov - ref.bufferTotal(v)) < 1e-9 &&
                   math.abs(e.bufferTotal(v) - ref.bufferTotal(v)) < 1e-9,
                 s"$name after ${r.id}: v$v Σprov $prov, |B_v| ${e.bufferTotal(v)}")
        }
      }
      assert(e.bufferTotal(1L) === 10.0, name)
    }
  }

  test("mass ledger holds on all 11 engines, with and without self-loops") {
    for {
      seed <- 1 to 8
      loops <- Seq(0.0, 0.15)
      intQ <- Seq(false, true)
      (name, e) <- TestTins.allEngines(8)
    } TestTins.massLedger(e, TestTins.random(seed, nV = 8, n = 300, intQ = intQ,
                                             selfLoopFrac = loops),
                          hint = s"$name seed $seed loops $loops intQ $intQ")
  }

  // Recorded from the LongMap-based sparse, windowed and budget engines
  // that preceded the list kernel, on TestTins.random(seed, nV = 40,
  // n = 600): sparse (peakBytes, peakEntries), windowed (W = 50) and
  // budget (C = 5) peakBytes, and budget's avgShrinks; then the dense
  // (|V| = 40), selective (tracking 0, 3, 7) and grouped (4 groups)
  // peakBytes, recorded from the separate dense and slot engines that
  // preceded the one dense-slot kernel.
  private val golden = Map(
    1 -> (21744L, 1359L, 4160L, 2752L, 9.416666666666666, 13120L, 1600L, 1600L),
    2 -> (22464L, 1404L, 4000L, 2592L, 9.08108108108108, 13120L, 1600L, 1600L),
    3 -> (22736L, 1421L, 3952L, 2592L, 9.61111111111111, 13120L, 1600L, 1600L),
    4 -> (20768L, 1298L, 4144L, 2560L, 9.378378378378379, 13120L, 1600L, 1600L),
    5 -> (20896L, 1306L, 4064L, 2656L, 8.868421052631579, 13120L, 1600L, 1600L),
  )

  golden.toSeq.sortBy(_._1).foreach {
    case (seed, (sBytes, sEntries, wBytes, bBytes, shrinks, dBytes, selBytes, gBytes)) =>
      test(s"metered peaks are unchanged from the recorded values (seed $seed)") {
        val rs = TestTins.random(seed, nV = 40, n = 600)
        val s = new ProportionalSparse(); s.processAll(rs)
        val w = new WindowedProvenance(50); w.processAll(rs)
        val b = new BudgetProvenance(5); b.processAll(rs)
        val d = new ProportionalDense(40); d.processAll(rs)
        val sel = new SelectiveProvenance(Seq(0L, 3L, 7L)); sel.processAll(rs)
        val g = new GroupedProvenance(4, v => (v % 4).toInt); g.processAll(rs)
        assert(s.memory.peakBytes === sBytes)
        assert(s.peakEntries === sEntries)
        assert(w.memory.peakBytes === wBytes)
        assert(b.memory.peakBytes === bBytes)
        assert(b.avgShrinks === shrinks)
        assert(d.memory.peakBytes === dBytes)
        assert(sel.memory.peakBytes === selBytes)
        assert(g.memory.peakBytes === gBytes)
      }
  }

  // The dense (|V| = 40), selective and grouped peakBytes of the engines
  // above on TestTins.random(seed, nV = 40, n = 12). Those 12 interactions
  // touch 17–20 vertices and give only 9–11 of them a row, so the values
  // pin when a row is allocated (a vertex first holds a quantity), not
  // only what it is charged; recorded before this test was added.
  private val goldenFewRows = Map(
    1 -> (3200L, 360L, 360L),
    2 -> (3520L, 400L, 400L),
    3 -> (3520L, 400L, 400L),
    4 -> (3840L, 440L, 440L),
    5 -> (3520L, 400L, 400L),
  )

  test("dense-slot peaks count only the rows a short stream allocates") {
    goldenFewRows.toSeq.sortBy(_._1).foreach { case (seed, (dBytes, selBytes, gBytes)) =>
      val rs = TestTins.random(seed, nV = 40, n = 12)
      val d = new ProportionalDense(40); d.processAll(rs)
      val sel = new SelectiveProvenance(Seq(0L, 3L, 7L)); sel.processAll(rs)
      val g = new GroupedProvenance(4, v => (v % 4).toInt); g.processAll(rs)
      assert(d.memory.peakBytes === dBytes, s"seed $seed")
      assert(sel.memory.peakBytes === selBytes, s"seed $seed")
      assert(g.memory.peakBytes === gBytes, s"seed $seed")
    }
  }

  test("sparse-list engines meter 16 B per live entry after every interaction") {
    (1 to 6).foreach { seed =>
      val rs = TestTins.random(seed, nV = 10, n = 300, selfLoopFrac = 0.1)
      val s = new ProportionalSparse()
      val b = new BudgetProvenance(4)
      val w = new WindowedProvenance(30)
      rs.foreach { r =>
        s.process(r); b.process(r); w.process(r)
        Seq(("sparse", s.memory, s.liveEntries), ("budget", b.memory, b.liveEntries),
            ("windowed", w.memory, w.liveEntries)).foreach { case (name, m, live) =>
          assert(m.liveBytes === MemoryModel.PairBytes * live, s"$name seed $seed at ${r.id}")
        }
        Seq(("sparse", s, s.liveEntries), ("budget", b, b.liveEntries)).foreach {
          case (name, e, live) =>
            assert((0L until 10L).map(e.provenance(_).size).sum === live,
                   s"$name seed $seed at ${r.id}")
        }
      }
    }
  }

  test("sparse ≡ dense per (vertex, origin) on self-loop streams, in origin order") {
    (1 to 10).foreach { seed =>
      val rs = TestTins.random(seed, nV = 10, n = 300, selfLoopFrac = 0.2)
      val d = new ProportionalDense(10); d.processAll(rs)
      val s = new ProportionalSparse(); s.processAll(rs)
      TestTins.assertMapsEqual(TestTins.originTotals(s), TestTins.originTotals(d),
                               hint = s"seed $seed")
      (0L until 10L).foreach { v =>
        val origins = s.provenance(v).map(_.origin)
        assert(origins === origins.sorted, s"seed $seed v$v")
        assert(s.provenancePairs(v).map(_._1).toVector === origins, s"seed $seed v$v")
      }
    }
  }

  test("windowed with W > n ≡ sparse per (vertex, origin) on self-loop streams") {
    (1 to 10).foreach { seed =>
      val rs = TestTins.random(seed, nV = 10, n = 300, selfLoopFrac = 0.2)
      val w = new WindowedProvenance(window = 301); w.processAll(rs)
      val s = new ProportionalSparse(); s.processAll(rs)
      TestTins.assertMapsEqual(TestTins.originTotals(w), TestTins.originTotals(s),
                               hint = s"seed $seed")
    }
  }
}
