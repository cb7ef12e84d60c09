package repro.core

/** A single interaction of a temporal interaction network (Definition 1).
  *
  * @param s  source vertex
  * @param d  destination vertex
  * @param t  time the interaction took place (any monotone clock)
  * @param q  transferred quantity (finite and ≥ 0)
  * @param id tie-breaker: position of the interaction in the input stream.
  *           The paper assumes a total time order; real timestamps can
  *           collide, so `(t, id)` is the canonical processing order.
  */
final case class Interaction(s: Long, d: Long, t: Long, q: Double, id: Long = 0L) {
  if (!(q >= 0.0 && q < Double.PositiveInfinity))
    throw new InvalidInteraction(this, "its quantity is not finite and ≥ 0")
}

/** An interaction no engine may process, raised where it is first seen:
  * by [[Interaction]] itself for its quantity, or by an engine for a
  * vertex id outside `0 until Interaction.VertexLimit`. Its message names
  * the offending row.
  */
final class InvalidInteraction(val row: Interaction, reason: String)
    extends IllegalArgumentException(s"invalid interaction $row: $reason")

object Interaction {

  /** Vertex ids of the engines that index their state by vertex
    * ([[NoProv]], [[OrderedEngine]]) lie in `0 until VertexLimit`; −1 is
    * the artificial origin α. Arbitrary `Long` ids reach them densely
    * encoded by `repro.dist.ComponentInput`.
    */
  val VertexLimit: Int = 1 << 28

  /** The larger of `r`'s endpoints, once both are in the vertex domain. */
  private[core] def checkIds(r: Interaction): Long = {
    def bad(v: Long) = v < 0 || v >= VertexLimit
    if (bad(r.s) || bad(r.d))
      throw new InvalidInteraction(r, s"a vertex id is outside 0 until $VertexLimit")
    math.max(r.s, r.d)
  }

  /** Length of a vertex-indexed array grown to hold id `top`: the next
    * power of two, so that an array grows at most once per doubling of
    * the ids seen and at most to `VertexLimit`.
    */
  private[core] def roomFor(top: Long): Int = Integer.highestOneBit(top.toInt | 1) << 1

  /** The canonical processing order used by every engine: time, then
    * stream position for equal timestamps.
    */
  implicit val timeOrdering: Ordering[Interaction] =
    Ordering.by((r: Interaction) => (r.t, r.id))

  /** Convenience constructor for hand-written examples (id = running index
    * is irrelevant when all timestamps are distinct).
    */
  def seq(rs: (Long, Long, Long, Double)*): Vector[Interaction] =
    rs.zipWithIndex.map { case ((s, d, t, q), i) => Interaction(s, d, t, q, i.toLong) }.toVector

  /** The paper's running example (Figure 3): six interactions among
    * vertices v0, v1, v2. Used by the Table 2–5 worked-example tests.
    */
  val runningExample: Vector[Interaction] = seq(
    (1L, 2L, 1L, 3.0),
    (2L, 0L, 3L, 5.0),
    (0L, 1L, 4L, 3.0),
    (1L, 2L, 5L, 7.0),
    (2L, 1L, 7L, 2.0),
    (2L, 0L, 8L, 1.0),
  )
}
