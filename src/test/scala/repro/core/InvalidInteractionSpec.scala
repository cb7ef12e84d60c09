package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Invalid input fails where it is first seen, with an
  * [[InvalidInteraction]] that names the offending row and leaves the
  * engine as it was.
  */
class InvalidInteractionSpec extends AnyFunSuite {

  /** The engines that index their state by vertex id. */
  private val engines: Seq[(String, () => ProvenanceEngine)] = Seq(
    "NoProv" -> (() => new NoProv()),
    "LRB" -> (() => new OrderedEngine(Policy.LeastRecentlyBorn)),
    "MRB" -> (() => new OrderedEngine(Policy.MostRecentlyBorn)),
    "LIFO" -> (() => new OrderedEngine(Policy.Lifo)),
    "FIFO" -> (() => new OrderedEngine(Policy.Fifo, trackPaths = true)),
    "LIFO consolidated" -> (() => new OrderedEngine(Policy.Lifo, consolidate = true)),
    "FIFO consolidated" -> (() => new OrderedEngine(Policy.Fifo, consolidate = true)),
  )

  test("an interaction with a quantity of +∞ (or NaN, or < 0) is rejected, naming the row") {
    (1 to 20).foreach { seed =>
      val r = TestTins.random(seed, 12, 1).head
      Seq(Double.PositiveInfinity, Double.NaN, -r.q).foreach { q =>
        val err = intercept[InvalidInteraction](r.copy(q = q))
        assert(err.row.s === r.s && err.row.d === r.d && err.row.id === r.id, s"seed $seed q $q")
        assert(err.getMessage.contains(s"Interaction(${r.s},${r.d},${r.t},$q,${r.id})"))
      }
    }
    assert(Interaction(1, 2, 3, Double.MaxValue).q === Double.MaxValue)
  }

  /** Replays a valid stream up to a random point, then feeds `bad(r)` for
    * the next row `r`: the engine must throw, naming that row, and keep
    * its snapshot.
    */
  private def rejects(what: String)(bad: (Interaction, java.util.Random) => Interaction): Unit =
    for (seed <- 1 to 8; (name, make) <- engines) {
      val rs = TestTins.random(seed, 12, 120)
      val rnd = new java.util.Random(seed)
      val at = rnd.nextInt(rs.size)
      val e = make()
      e.processAll(rs.take(at))
      val before = e.snapshot()
      val row = bad(rs(at), rnd)
      val err = intercept[InvalidInteraction](e.process(row))
      assert(err.row === row, s"$name seed $seed")
      assert(e.snapshot() === before, s"$name seed $seed: state changed by a rejected $what")
    }

  test("ordered engines and NoProv reject a negative vertex id") {
    rejects("negative id") { (r, rnd) =>
      val id = -1L - rnd.nextInt(3)
      if (rnd.nextBoolean()) r.copy(s = id) else r.copy(d = id)
    }
  }

  test("ordered engines and NoProv reject a vertex id past the vertex limit") {
    rejects("over-limit id") { (r, rnd) =>
      val id = Seq(Interaction.VertexLimit.toLong, 1L << 40, Long.MaxValue)(rnd.nextInt(3))
      if (rnd.nextBoolean()) r.copy(s = id) else r.copy(d = id)
    }
  }
}
