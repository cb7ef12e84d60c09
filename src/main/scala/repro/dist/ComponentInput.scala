package repro.dist

import repro.core.{Interaction, InvalidInteraction}

/** One component's interactions at the ingestion boundary of a replay:
  * checked, in `(t, id)` order, and over dense vertex ids `0 … n−1`.
  *
  * This is the one place where the distributed and streaming layers check
  * vertex ids. The engines that index their state by vertex id accept ids
  * in `0 until Interaction.VertexLimit` only; the dense encoding lets any
  * non-negative `Long` id through. It keeps the order of the ids, so
  * output rows come back in the same vertex order as without it.
  *
  * @param interactions the rows, re-labelled by [[encode]]
  * @param ids          the component's distinct vertex ids, ascending:
  *                     dense id `x` stands for `ids(x)`
  */
final class ComponentInput private (val interactions: Array[Interaction], ids: Array[Long]) {

  /** The dense id of `v`, one of the ids of the component. */
  def encode(v: Long): Long = java.util.Arrays.binarySearch(ids, v).toLong

  /** The vertex id behind dense id `x`; α = −1 stays −1. */
  def decode(x: Long): Long = if (x == -1L) -1L else ids(x.toInt)
}

object ComponentInput {

  /** Checks and encodes `rows` of one component. `carried` are the ids of
    * state carried over from earlier input (a streaming component's
    * buffers and their origins); they are encoded too.
    *
    * @throws InvalidInteraction for a row whose quantity is not finite
    *         and ≥ 0, or whose vertex id is negative (−1 is the
    *         artificial origin α)
    */
  def apply(rows: Iterator[TaggedInteraction], carried: Iterable[Long] = Nil): ComponentInput = {
    val rs = rows.map(r => Interaction(r.src, r.dst, r.ts, r.qty, r.id)).toArray
    rs.foreach { r =>
      if (r.s < 0 || r.d < 0)
        throw new InvalidInteraction(r, "a vertex id is negative (−1 is the artificial origin α)")
    }
    rs.sortInPlaceBy(r => (r.t, r.id))
    val all = new Array[Long](2 * rs.length + carried.size)
    var k = 0
    rs.foreach { r => all(k) = r.s; all(k + 1) = r.d; k += 2 }
    carried.foreach { v => all(k) = v; k += 1 }
    java.util.Arrays.sort(all)
    var n = 0
    var i = 0
    while (i < all.length) { if (n == 0 || all(i) != all(n - 1)) { all(n) = all(i); n += 1 }; i += 1 }
    val ids = java.util.Arrays.copyOf(all, n)
    val in = new ComponentInput(rs, ids)
    var j = 0
    while (j < rs.length) {
      val r = rs(j)
      rs(j) = r.copy(s = in.encode(r.s), d = in.encode(r.d))
      j += 1
    }
    in
  }
}
