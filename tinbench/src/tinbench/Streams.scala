package tinbench

import repro.core.Interaction

/** The engine workloads' input streams, built here from the seed alone so
  * that changes to the program's own generators leave them unchanged.
  */
object Streams {

  /** Shape of a synthetic stream. Endpoints are drawn from a zipf head
    * (rank weights 1/k^skew) or, with probability `uniformMix`, uniformly;
    * with probability `disjointFrac` an interaction flows from the lower
    * to the upper half of the vertex range.
    */
  final case class Shape(vertices: Int, interactions: Int, skew: Double,
                         uniformMix: Double, disjointFrac: Double,
                         qty: Rng => Double)

  /** Bitcoin: 120 k vertices, 455 k interactions, exponential quantities
    * with mean 34.4 (the paper's average).
    */
  val bitcoin: Shape = Shape(120_000, 455_000, 1.1, 0.5, 0.3,
                             r => -34.4 * math.log(1.0 - r.nextDouble()))

  /** Flights: all 629 airports, 60 k interactions, 50–200 passengers. */
  val flights: Shape = Shape(629, 60_000, 0.8, 0.0, 0.0, r => (50 + r.nextInt(151)).toDouble)

  /** SplitMix64 (Steele, Lea & Flood, OOPSLA 2014). */
  final class Rng(seed: Long) {
    private var x = seed
    def nextLong(): Long = {
      x += 0x9E3779B97F4A7C15L
      var z = x
      z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
      z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
      z ^ (z >>> 31)
    }
    def nextDouble(): Double = (nextLong() >>> 11) * (1.0 / (1L << 53))
    def nextInt(n: Int): Int = ((nextLong() >>> 33) % n).toInt
  }

  /** A time-ordered stream of `shape` without self-loops: an endpoint pair
    * that collides moves its destination to the next vertex.
    */
  def build(shape: Shape, seed: Long): Array[Interaction] = {
    val rng = new Rng(seed)
    val v = shape.vertices
    val half = v / 2
    def endpoint(lo: Int, size: Int): Int =
      lo + (if (rng.nextDouble() < shape.uniformMix) rng.nextInt(size)
            else {
              val k = math.pow(1.0 / (rng.nextDouble() + 1e-9), 1.0 / shape.skew) - 1.0
              math.min(size - 1L, math.max(0L, k.toLong)).toInt
            })
    Array.tabulate(shape.interactions) { i =>
      val disjoint = rng.nextDouble() < shape.disjointFrac
      val s = if (disjoint) endpoint(0, half) else endpoint(0, v)
      var d = if (disjoint) endpoint(half, v - half) else endpoint(0, v)
      if (d == s) d = (d + 1) % v
      Interaction(s.toLong, d.toLong, i.toLong, shape.qty(rng), i.toLong)
    }
  }
}
