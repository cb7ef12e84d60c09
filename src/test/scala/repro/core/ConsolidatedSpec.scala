package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Consolidated LIFO/FIFO buffers (one entry per origin) against the
  * plain-vector [[ConsolidatedReference]], on streams where hub buffers
  * grow past the length at which they index their origins and shrink back
  * below the length at which they drop the index.
  */
class ConsolidatedSpec extends AnyFunSuite {
  private val NV = 96
  private val Hubs = 2

  /** Rounds of 160 interactions: in the first 110, the other vertices send
    * small quantities into the hubs, which collect entries of many origins;
    * in the last 50, the hubs send larger ones out, which drains them. One
    * interaction in ten joins random vertices (self-loops included).
    */
  private def hubStream(seed: Long, n: Int): Vector[Interaction] = {
    val rnd = new java.util.Random(seed)
    def other() = Hubs + rnd.nextInt(NV - Hubs)
    Vector.tabulate(n) { i =>
      val (s, d, q) =
        if (rnd.nextDouble() < 0.1) (rnd.nextInt(NV), rnd.nextInt(NV), 1 + 10 * rnd.nextDouble())
        else if (i % 160 < 110) (other(), rnd.nextInt(Hubs), 0.5 + rnd.nextDouble())
        else (rnd.nextInt(Hubs), other(), 2 + 6 * rnd.nextDouble())
      Interaction(s.toLong, d.toLong, i.toLong, q, i.toLong)
    }
  }

  for (lifo <- Seq(true, false); paths <- Seq(false, true)) {
    val name = s"${if (lifo) "LIFO" else "FIFO"}${if (paths) " with paths" else ""}"
    test(s"consolidated $name ≡ reference per (vertex, origin), in buffer order") {
      (1 to 4).foreach { seed =>
        val rs = hubStream(seed, 1200)
        val policy = if (lifo) Policy.Lifo else Policy.Fifo
        val e = new OrderedEngine(policy, trackPaths = paths, consolidate = true)
        val plain = new OrderedEngine(policy, trackPaths = paths)
        val ref = new ConsolidatedReference(lifo)
        var longest = 0; var shrunkBack = false
        rs.foreach { r =>
          e.process(r); plain.process(r); ref.process(r)
          (0 until Hubs).foreach { h =>
            val n = e.provenance(h.toLong).size
            if (n > longest) longest = n
            if (longest > OrderedEngine.IndexFrom && 2 * n < OrderedEngine.IndexFrom) shrunkBack = true
          }
          if (r.id % 50 == 49) (0 until NV).foreach { v =>
            val got = e.provenance(v.toLong).map(p => (p.origin, p.quantity, p.path))
            val want = ref.entries(v.toLong).map(x => (x.origin, x.q, if (paths) x.path else Nil))
            assert(got === want, s"$name seed $seed vertex $v after ${r.id}")
            assert(got.map(_._1).distinct.size === got.size, s"one entry per origin at $v")
            assert(math.abs(e.bufferTotal(v.toLong) - plain.bufferTotal(v.toLong)) < 1e-9)
          }
        }
        assert(longest > 2 * OrderedEngine.IndexFrom, s"seed $seed: hubs reached $longest entries")
        assert(shrunkBack, s"seed $seed: no hub shrank back below the index length")
      }
    }
  }
}
