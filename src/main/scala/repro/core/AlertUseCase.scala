package repro.core

import scala.collection.mutable

/** §7.6 use case — provenance-based "smurfing" alerts.
  *
  * While replaying interactions under the proportional policy, raise an
  * alert whenever the receiving vertex accumulates more than `threshold`
  * units *none of which originates from its direct in-neighbours* (the
  * neighbours only relay — an indication of layered transfers). Each
  * alert also reports the number of contributing origins; the paper
  * flags alerts with fewer than five origins (red dots in Fig. 9).
  */
object AlertUseCase {

  /** One raised alert.
    *
    * @param interactionIdx 0-based position in the processed stream
    * @param vertex         the receiving vertex
    * @param buffered       |B_v| at alert time
    * @param numOrigins     contributing origin vertices at alert time
    */
  final case class Alert(interactionIdx: Long, vertex: Long, buffered: Double,
                         numOrigins: Int) {
    /** Paper's red-dot condition: fewer than five contributing vertices. */
    def fewSources: Boolean = numOrigins < 5
  }

  /** Replay `rs` (time-ordered) with a sparse proportional engine and
    * collect all alerts for the given threshold.
    */
  def run(rs: IterableOnce[Interaction], threshold: Double,
          budgetBytes: Long = MemoryModel.Unbounded): Vector[Alert] = {
    val eng = new ProportionalSparse(budgetBytes)
    val inNbrs = mutable.LongMap.empty[mutable.HashSet[Long]]
    val alerts = Vector.newBuilder[Alert]
    var idx = 0L
    rs.iterator.foreach { r =>
      inNbrs.getOrElseUpdate(r.d, mutable.HashSet.empty) += r.s
      eng.process(r)
      val total = eng.bufferTotal(r.d)
      if (total > threshold) {
        val nbrs = inNbrs(r.d)
        // Origin = the receiving vertex itself does not count as an
        // external neighbour contribution. Early-exits on the first
        // neighbour-origin fragment, so the common (no-alert) case is
        // cheap even at hot vertices with long lists.
        val fromNeighbour =
          eng.provenancePairs(r.d).exists { case (o, _) => o != r.d && nbrs.contains(o) }
        if (!fromNeighbour) {
          val numOrigins = eng.provenancePairs(r.d).count(_._1 != r.d)
          alerts += Alert(idx, r.d, total, numOrigins)
        }
      }
      idx += 1
    }
    alerts.result()
  }
}
