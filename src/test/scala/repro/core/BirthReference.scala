package repro.core

import scala.collection.mutable

/** Element-wise Alg. 2 for the §4.1 policies, as a test reference: each
  * vertex keeps a plain list of elements, every selection scans it for the
  * least (LRB) or greatest (MRB) (birth, newborn number, creation order),
  * and nothing is ever merged.
  */
final class BirthReference(youngFirst: Boolean) {
  private final class El(val origin: Long, val birth: Long, val event: Long, val seq: Long,
                         var q: Double) {
    def key: (Long, Long, Long) = (birth, event, seq)
  }

  private val Eps = ProvenanceEngine.Eps
  private val bufs = mutable.Map.empty[Long, mutable.ArrayBuffer[El]]
  private var events = 0L
  private var seqs = 0L

  private def bufOf(v: Long) = bufs.getOrElseUpdate(v, mutable.ArrayBuffer.empty[El])

  def process(r: Interaction): Unit = {
    val src = bufOf(r.s)
    val moved = mutable.ArrayBuffer.empty[El]
    var resq = r.q
    while (resq > Eps && src.nonEmpty) {
      val tau = if (youngFirst) src.maxBy(_.key) else src.minBy(_.key)
      if (tau.q > resq + Eps) {
        tau.q -= resq
        seqs += 1
        moved += new El(tau.origin, tau.birth, tau.event, seqs, resq)
        resq = 0.0
      } else {
        src -= tau
        resq -= tau.q
        moved += tau
      }
    }
    val dst = bufOf(r.d)
    dst ++= moved
    if (resq > Eps) {
      events += 1; seqs += 1
      dst += new El(r.s, r.t, events, seqs, resq)
    }
  }

  def processAll(rs: Seq[Interaction]): this.type = { rs.foreach(process); this }

  /** (vertex, origin, birth) → buffered quantity. */
  def totals: Map[(Long, Long, Long), Double] =
    (for ((v, b) <- bufs.toSeq; e <- b) yield ((v, e.origin, e.birth), e.q))
      .groupMapReduce(_._1)(_._2)(_ + _)

  /** (vertex, origin, birth) → number of distinct newborns with elements there. */
  def newborns: Map[(Long, Long, Long), Int] =
    (for ((v, b) <- bufs.toSeq; e <- b) yield ((v, e.origin, e.birth), e.event))
      .groupMapReduce(_._1)(p => Set(p._2))(_ ++ _).view.mapValues(_.size).toMap
}
