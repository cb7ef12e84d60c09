package repro.core

import scala.collection.mutable

/** Alg. 2 for the receipt-order policies with per-origin consolidation, as
  * a test reference: each vertex keeps a plain vector of (origin,
  * quantity, path) entries, and an arrival finds its origin's entry by a
  * linear search. Paths are origin first.
  */
final class ConsolidatedReference(lifo: Boolean) {
  final case class Entry(origin: Long, q: Double, path: List[Long])

  private val Eps = ProvenanceEngine.Eps
  private val bufs = mutable.Map.empty[Long, Vector[Entry]].withDefaultValue(Vector.empty)

  /** Adds `a` into its origin's entry of `buf`, or appends it. */
  private def arrive(buf: Vector[Entry], a: Entry): Vector[Entry] =
    buf.indexWhere(_.origin == a.origin) match {
      case -1 => buf :+ a
      case i  => buf.updated(i, buf(i).copy(q = buf(i).q + a.q))
    }

  def process(r: Interaction): Unit = {
    var src = bufs(r.s)
    val moved = mutable.ArrayBuffer.empty[Entry]
    var resq = r.q
    while (resq > Eps && src.nonEmpty) {
      val tau = if (lifo) src.last else src.head
      val rest = if (lifo) src.init else src.tail
      if (tau.q > resq + Eps) {
        val kept = tau.copy(q = tau.q - resq)
        src = if (lifo) rest :+ kept else kept +: rest
        moved += tau.copy(q = resq)
        resq = 0.0
      } else {
        src = rest
        resq -= tau.q
        moved += tau
      }
    }
    if (resq < Eps) resq = 0.0
    bufs(r.s) = src
    val chunk = if (lifo) moved.reverse else moved
    var dst = bufs(r.d)
    chunk.foreach(e => dst = arrive(dst, e.copy(path = e.path :+ r.s)))
    if (resq > Eps) dst = arrive(dst, Entry(r.s, resq, List(r.s)))
    bufs(r.d) = dst
  }

  /** `v`'s entries in queue order (head→tail) or stack order (bottom→top). */
  def entries(v: Long): Vector[Entry] = bufs(v)
}
