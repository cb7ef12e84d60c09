package repro.core

import scala.collection.mutable

/** List-only Alg. 3 as a test reference for the sparse-list engines: each
  * vertex keeps its fragments in an origin-ordered `TreeMap`, and every
  * ⊕/⊖, Eps rule and `memory.charge` comes in the order the
  * sparse-list merge makes them. [[sparse]], [[windowed]] and [[budget]]
  * replay a stream as the three engines do.
  */
final class ListReference(val memory: MemoryModel) {
  private val Eps = ProvenanceEngine.Eps

  private final class Row {
    val frags = mutable.TreeMap.empty[Long, Double]
    var total = 0.0
  }

  // Rows are created in the engines' order (source, then destination), so
  // a reset visits them in the same order.
  private val rows = mutable.LongMap.empty[Row]

  private def rowOf(v: Long): Row = rows.getOrElseUpdate(v, new Row)
  private def charge(k: Int): Unit = memory.charge(k * MemoryModel.PairBytes)

  def relay(s: Long, d: Long, q: Double): Unit = {
    val ps = rowOf(s); val bs = ps.total
    if (s == d) {
      if (q - bs > Eps) add(ps, s, q - bs)
      ps.total = math.max(bs, q)
    } else {
      val pd = rowOf(d)
      val whole = q >= bs - Eps
      val frac = if (whole) 1.0 else q / bs
      val n = ps.frags.size
      ps.frags.toVector.foreach { case (o, v) =>
        val m = v * frac
        pd.frags.get(o) match {
          case Some(x) => pd.frags(o) = x + m
          case None => if (m > Eps) { pd.frags(o) = m; charge(1) }
        }
        if (!whole) {
          val rest = v - m
          if (rest > Eps) ps.frags(o) = rest else { ps.frags.remove(o); charge(-1) }
        }
      }
      if (whole) {
        charge(-n); ps.frags.clear()
        if (q - bs > Eps) add(pd, s, q - bs)
        ps.total = 0.0
      } else ps.total = bs - q
      pd.total += q
    }
  }

  private def add(r: Row, origin: Long, q: Double): Unit = r.frags.get(origin) match {
    case Some(x) => r.frags(origin) = x + q
    case None => if (q > Eps) { r.frags(origin) = q; charge(1) }
  }

  def resetAll(alpha: Long): Unit = rows.foreachValue { r =>
    charge(-r.frags.size)
    r.frags.clear()
    if (r.total > Eps) add(r, alpha, r.total)
  }

  /** Keeps the `keep` largest non-α fragments (ties: smallest origin) and
    * folds the rest into `alpha`, summed from the largest down.
    */
  def shrink(v: Long, keep: Int, alpha: Long): Unit = {
    val r = rowOf(v)
    val ranked = r.frags.toVector.filter(_._1 != alpha).sortBy(-_._2) // stable: origin order
    val dropped = ranked.drop(keep)
    var removed = 0.0
    dropped.foreach { case (o, q) => removed += q; r.frags.remove(o) }
    charge(-dropped.size)
    add(r, alpha, removed)
  }

  def size(v: Long): Int = rowOf(v).frags.size

  /** v → its fragments in origin order, over the vertices with |B_v| > Eps. */
  def snapshot: Map[Long, Vector[(Long, Double)]] =
    rows.iterator.collect { case (v, r) if r.total > Eps => v -> r.frags.toVector }.toMap
}

object ListReference {
  val Alpha: Long = -1L

  def sparse(rs: Seq[Interaction]): ListReference = {
    val ref = new ListReference(new MemoryModel(MemoryModel.Unbounded))
    rs.foreach(r => ref.relay(r.s, r.d, r.q))
    ref
  }

  def budget(rs: Seq[Interaction], capacity: Int, keepFraction: Double = 0.6): ListReference = {
    val ref = new ListReference(new MemoryModel(MemoryModel.Unbounded))
    val keep = math.ceil(keepFraction * capacity).toInt
    rs.foreach { r =>
      ref.relay(r.s, r.d, r.q)
      if (ref.size(r.d) > capacity) ref.shrink(r.d, keep, Alpha)
    }
    ref
  }

  /** The queryable store (the one least recently reset) and the meter of both. */
  def windowed(rs: Seq[Interaction], window: Long): (ListReference, MemoryModel) = {
    val memory = new MemoryModel(MemoryModel.Unbounded)
    val odd = new ListReference(memory); val even = new ListReference(memory)
    var lastOdd = Long.MinValue; var lastEven = Long.MinValue
    rs.zipWithIndex.foreach { case (r, i) =>
      odd.relay(r.s, r.d, r.q); even.relay(r.s, r.d, r.q)
      val processed = i + 1L
      if (processed % window == 0) {
        if ((processed / window) % 2 == 1) { odd.resetAll(Alpha); lastOdd = processed }
        else { even.resetAll(Alpha); lastEven = processed }
      }
    }
    (if (lastOdd <= lastEven) odd else even, memory)
  }
}
