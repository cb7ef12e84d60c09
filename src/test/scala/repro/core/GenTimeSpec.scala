package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** §4.1 generation-time policies — exact reproduction of Table 3
  * (least-recently-born) plus most-recently-born behaviour and
  * conservation properties.
  */
class GenTimeSpec extends AnyFunSuite {
  private val R = Interaction.runningExample

  private def lrb() = new OrderedEngine(Policy.LeastRecentlyBorn)
  private def mrb() = new OrderedEngine(Policy.MostRecentlyBorn)

  /** Buffer contents as (origin, birth, quantity) multisets. */
  private def triples(e: OrderedEngine, v: Long): Set[(Long, Long, Double)] =
    e.provenance(v).map(p => (p.origin, p.birth, p.quantity)).toSet

  /** Expected buffers after each interaction (Table 3). */
  private val table3: Vector[Map[Long, Set[(Long, Long, Double)]]] = Vector(
    Map(2L -> Set((1L, 1L, 3.0))),
    Map(0L -> Set((1L, 1L, 3.0), (2L, 3L, 2.0))),
    Map(0L -> Set((2L, 3L, 2.0)), 1L -> Set((1L, 1L, 3.0))),
    Map(0L -> Set((2L, 3L, 2.0)), 2L -> Set((1L, 1L, 3.0), (1L, 5L, 4.0))),
    Map(0L -> Set((2L, 3L, 2.0)), 1L -> Set((1L, 1L, 2.0)),
        2L -> Set((1L, 1L, 1.0), (1L, 5L, 4.0))),
    Map(0L -> Set((1L, 1L, 1.0), (2L, 3L, 2.0)), 1L -> Set((1L, 1L, 2.0)),
        2L -> Set((1L, 5L, 4.0))),
  )

  table3.indices.foreach { i =>
    test(s"Table 3 row ${i + 1}: LRB buffers after interaction ${i + 1}") {
      val e = lrb()
      e.processAll(R.take(i + 1))
      table3(i).foreach { case (v, expected) =>
        assert(triples(e, v) === expected, s"vertex $v")
      }
      // all other vertices are empty
      (0L to 2L).filterNot(table3(i).contains).foreach { v =>
        assert(triples(e, v).isEmpty, s"vertex $v should be empty")
      }
    }
  }

  test("LRB selects the oldest triple first") {
    val e = lrb()
    e.process(Interaction(1, 3, 1, 2.0)) // born t=1 at v1
    e.process(Interaction(2, 3, 2, 2.0)) // born t=2 at v2
    e.process(Interaction(3, 4, 3, 2.0)) // relay: must pick the t=1 triple
    assert(triples(e, 4L) === Set((1L, 1L, 2.0)))
    assert(triples(e, 3L) === Set((2L, 2L, 2.0)))
  }

  test("MRB selects the newest triple first") {
    val e = mrb()
    e.process(Interaction(1, 3, 1, 2.0))
    e.process(Interaction(2, 3, 2, 2.0))
    e.process(Interaction(3, 4, 3, 2.0)) // relay: must pick the t=2 triple
    assert(triples(e, 4L) === Set((2L, 2L, 2.0)))
    assert(triples(e, 3L) === Set((1L, 1L, 2.0)))
  }

  test("split keeps origin and birth time on both parts") {
    val e = lrb()
    e.process(Interaction(5, 6, 10, 4.0))
    e.process(Interaction(6, 7, 11, 1.5))
    assert(triples(e, 6L) === Set((5L, 10L, 2.5)))
    assert(triples(e, 7L) === Set((5L, 10L, 1.5)))
  }

  test("shortfall generates a newborn triple with the interaction time") {
    val e = lrb()
    e.process(Interaction(5, 6, 10, 4.0))
    e.process(Interaction(6, 7, 11, 6.0)) // 4 relayed + 2 newborn at v6
    assert(triples(e, 7L) === Set((5L, 10L, 4.0), (6L, 11L, 2.0)))
    assert(e.bufferTotal(6L) === 0.0)
  }

  test("transfer from an empty buffer is fully newborn") {
    val e = lrb()
    e.process(Interaction(9, 8, 5, 7.0))
    assert(triples(e, 8L) === Set((9L, 5L, 7.0)))
  }

  test("MRB on Table 3 input conserves per-vertex totals") {
    val e = mrb()
    e.processAll(R)
    assert(e.bufferTotal(0L) === 3.0)
    assert(e.bufferTotal(1L) === 2.0)
    assert(e.bufferTotal(2L) === 4.0)
  }

  Seq("LRB" -> (() => lrb()), "MRB" -> (() => mrb())).foreach { case (name, mk) =>
    test(s"$name: buffer totals match NoProv on random TINs") {
      (1 to 15).foreach { seed =>
        val rs = TestTins.random(seed, nV = 8, n = 250, intQ = true)
        val a = mk(); a.processAll(rs)
        val b = new NoProv(); b.processAll(rs)
        (0L until 8L).foreach { v =>
          assert(math.abs(a.bufferTotal(v) - b.bufferTotal(v)) < 1e-6, s"seed $seed v$v")
        }
      }
    }

    test(s"$name: provenance sums to the buffer total") {
      (1 to 15).foreach { seed =>
        val rs = TestTins.random(seed + 100, nV = 8, n = 250)
        val e = mk(); e.processAll(rs)
        (0L until 8L).foreach { v =>
          val s = e.provenance(v).map(_.quantity).sum
          assert(math.abs(s - e.bufferTotal(v)) < 1e-6, s"seed $seed v$v")
        }
      }
    }

    test(s"$name: per-origin global totals equal generated quantities") {
      (1 to 15).foreach { seed =>
        val rs = TestTins.random(seed + 200, nV = 6, n = 200, intQ = true)
        val e = mk(); e.processAll(rs)
        val gen = new NoProv(); gen.processAll(rs)
        val byOrigin = e.snapshot().groupBy(_._2.origin).view
          .mapValues(_.map(_._2.quantity).sum).toMap
        (0L until 6L).foreach { o =>
          assert(math.abs(byOrigin.getOrElse(o, 0.0) - gen.generatedBy(o)) < 1e-6,
                 s"seed $seed origin $o")
        }
      }
    }
  }

  test("gen-time triples cost 24 bytes each in the memory model") {
    val e = lrb()
    e.process(Interaction(1, 2, 0, 5.0))
    assert(e.memory.peakBytes === MemoryModel.TripleBytes)
    e.process(Interaction(3, 2, 1, 5.0))
    assert(e.memory.peakBytes === 2 * MemoryModel.TripleBytes)
  }

  test("element count grows by at most one per interaction") {
    (1 to 10).foreach { seed =>
      val rs = TestTins.random(seed, nV = 5, n = 150)
      val e = lrb()
      var prev = 0L
      rs.foreach { r =>
        e.process(r)
        assert(e.liveElements <= prev + 1, s"seed $seed")
        prev = e.liveElements
      }
    }
  }

  // -------- one entry per newborn vs the element-wise reference --------

  /** Streams with distinct timestamps, equal timestamps (three per tick)
    * and self-loops.
    */
  private def streams(seed: Int): Seq[(String, Vector[Interaction])] = {
    val distinct = TestTins.random(seed, nV = 8, n = 300)
    Seq(
      "distinct" -> distinct,
      "equal-t" -> distinct.map(r => r.copy(t = r.id / 3)),
      "equal-t intQ" -> TestTins.random(seed + 50, nV = 6, n = 300, intQ = true)
        .map(r => r.copy(t = r.id / 3)),
      "self-loops" -> TestTins.random(seed + 100, nV = 8, n = 300, selfLoopFrac = 0.15)
        .map(r => r.copy(t = r.id / 2)),
    )
  }

  private def entryCounts(e: OrderedEngine): Map[(Long, Long, Long), Int] =
    e.snapshot().groupMapReduce { case (v, p) => (v, p.origin, p.birth) }(_ => 1)(_ + _)

  Seq("LRB" -> Policy.LeastRecentlyBorn, "MRB" -> Policy.MostRecentlyBorn).foreach {
    case (name, policy) =>
      test(s"$name ≡ element-wise reference per (vertex, origin, birth)") {
        (1 to 8).foreach { seed =>
          streams(seed).foreach { case (kind, rs) =>
            val e = new OrderedEngine(policy); e.processAll(rs)
            val ref = new BirthReference(policy == Policy.MostRecentlyBorn).processAll(rs)
            val got = e.snapshot().groupMapReduce { case (v, p) => (v, p.origin, p.birth) }(
              _._2.quantity)(_ + _)
            TestTins.assertMapsEqual(got, ref.totals, hint = s"$kind seed $seed")
          }
        }
      }

      test(s"$name keeps one entry per (vertex, newborn), in birth order") {
        (1 to 8).foreach { seed =>
          streams(seed).foreach { case (kind, rs) =>
            val e = new OrderedEngine(policy); e.processAll(rs)
            val ref = new BirthReference(policy == Policy.MostRecentlyBorn).processAll(rs)
            val (got, want) = (entryCounts(e), ref.newborns)
            val diff = (got.keySet ++ want.keySet).filter(k => got.get(k) != want.get(k))
            assert(diff.size === 0, s"$kind seed $seed: entries vs newborns at " +
                     diff.take(3).map(k => s"$k: ${got.get(k)} vs ${want.get(k)}").mkString(", "))
            assert(e.liveElements === want.values.sum.toLong, s"$kind seed $seed")
            e.vertices.foreach { v =>
              val births = e.provenance(v).map(_.birth)
              assert(births === births.sorted, s"$kind seed $seed v$v")
            }
          }
        }
      }

      test(s"$name meters 24 B per live entry after every interaction") {
        (1 to 4).foreach { seed =>
          streams(seed).foreach { case (kind, rs) =>
            val e = new OrderedEngine(policy)
            rs.foreach { r =>
              e.process(r)
              assert(e.memory.liveBytes === MemoryModel.TripleBytes * e.liveElements,
                     s"$kind seed $seed at ${r.id}")
            }
          }
        }
      }
  }
}
