package tinbench

import repro.core.{Interaction, ProvEntry}
import scala.collection.mutable

/** Algorithm 1 computed independently of the program: the buffer total
  * |B_v| of every vertex and the quantity each origin generated.
  */
final class Reference(rs: Array[Interaction]) {
  val buffer: mutable.LongMap[Double] = mutable.LongMap.empty
  val generated: mutable.LongMap[Double] = mutable.LongMap.empty
  rs.foreach { r =>
    val bs = buffer.getOrElse(r.s, 0.0)
    val relayed = math.min(r.q, bs)
    buffer(r.s) = bs - relayed
    buffer(r.d) = buffer.getOrElse(r.d, 0.0) + r.q
    if (r.q > relayed) generated(r.s) = generated.getOrElse(r.s, 0.0) + (r.q - relayed)
  }
  val totalGenerated: Double = generated.valuesIterator.sum

  /** Generated mass summed per reported label (`label(origin)`). */
  def generatedBy(label: Long => Long): mutable.LongMap[Double] = {
    val out = mutable.LongMap.empty[Double]
    generated.foreach { case (o, g) => val l = label(o); out(l) = out.getOrElse(l, 0.0) + g }
    out
  }

  /** The `k` origins that generated the most (ties by id). */
  def topGenerators(k: Int): Vector[Long] =
    generated.toVector.sortBy { case (o, g) => (-g, o) }.take(k).map(_._1)
}

/** What an engine's output must satisfy per origin, given the reference. */
sealed trait Expect
object Expect {
  /** Σ_v prov(v, o) = generated(o) per reported label; `label` maps an
    * origin to the label the engine reports it under.
    */
  final case class PerLabel(label: Long => Long) extends Expect
  val Exact: Expect = PerLabel(identity)
  /** Total conserved including α = −1; no real origin above what it
    * generated.
    */
  case object AlphaFolded extends Expect
}

/** The output checks. Each returns `None` when the output holds and a
  * reason otherwise. Sums compare within 1e-6 relative (at least 1e-6).
  */
object Checks {
  type Snapshot = collection.Seq[(Long, ProvEntry)]

  def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-6 * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  private def sumBy(rows: Iterator[(Long, Double)]): mutable.LongMap[Double] = {
    val out = mutable.LongMap.empty[Double]
    rows.foreach { case (k, q) => out(k) = out.getOrElse(k, 0.0) + q }
    out
  }

  /** Two keyed sums agree on every key of either side. */
  def sameSums(what: String, got: collection.Map[Long, Double],
               want: collection.Map[Long, Double]): Option[String] =
    (got.keysIterator ++ want.keysIterator)
      .find(k => !close(got.getOrElse(k, 0.0), want.getOrElse(k, 0.0)))
      .map(k => s"$what $k: got ${got.getOrElse(k, 0.0)}, want ${want.getOrElse(k, 0.0)}")

  /** Per vertex, Σ provenance = the reference |B_v|. */
  def perVertex(rows: Iterator[(Long, Double)], ref: Reference): Option[String] =
    sameSums("vertex", sumBy(rows), ref.buffer)

  /** Per origin, as `expect` says. */
  def perOrigin(rows: Iterator[(Long, Double)], ref: Reference, expect: Expect): Option[String] =
    expect match {
      case Expect.PerLabel(label) => sameSums("origin", sumBy(rows), ref.generatedBy(label))
      case Expect.AlphaFolded =>
        val got = sumBy(rows)
        val total = got.valuesIterator.sum
        if (!close(total, ref.totalGenerated))
          Some(s"total with alpha: got $total, want ${ref.totalGenerated}")
        else
          got.find { case (o, q) =>
            o != -1L && q > ref.generated.getOrElse(o, 0.0) &&
              !close(q, ref.generated.getOrElse(o, 0.0))
          }.map { case (o, q) => s"origin $o holds $q, generated ${ref.generated.getOrElse(o, 0.0)}" }
    }

  /** Both checks on an engine snapshot. */
  def snapshot(snap: Snapshot, ref: Reference, expect: Expect): Option[String] =
    perVertex(snap.iterator.map { case (v, e) => v -> e.quantity }, ref)
      .orElse(perOrigin(snap.iterator.map { case (_, e) => e.origin -> e.quantity }, ref, expect))

  /** Quantity per (vertex, origin) of a snapshot. */
  def byPair(s: Snapshot): Map[(Long, Long), Double] =
    s.groupMapReduce { case (v, e) => (v, e.origin) }(_._2.quantity)(_ + _)

  /** Two decompositions hold the same quantity per (vertex, origin). */
  def samePairs(got: Map[(Long, Long), Double], want: Map[(Long, Long), Double]): Option[String] =
    (got.keySet ++ want.keySet)
      .find(k => !close(got.getOrElse(k, 0.0), want.getOrElse(k, 0.0)))
      .map(k => s"(vertex, origin) $k: ${got.getOrElse(k, 0.0)} vs ${want.getOrElse(k, 0.0)}")

  /** `n` interactions in strictly increasing (t, id) order. */
  def timeOrdered(rs: Array[Interaction], n: Long): Option[String] =
    if (rs.length != n) Some(s"${rs.length} interactions, want $n")
    else rs.indices.drop(1).collectFirst {
      case i if rs(i - 1).t > rs(i).t || (rs(i - 1).t == rs(i).t && rs(i - 1).id >= rs(i).id) =>
        s"out of order at id ${rs(i).id}"
    }

  /** Two labellings of the same items induce the same partition. */
  def samePartition(a: collection.Map[Long, Long], b: collection.Map[Long, Long]): Option[String] =
    if (a.keySet != b.keySet) Some(s"labelled ${a.size} vs ${b.size} items")
    else {
      val ab = mutable.LongMap.empty[Long]
      val ba = mutable.LongMap.empty[Long]
      a.find { case (k, la) =>
        val lb = b(k)
        ab.getOrElseUpdate(la, lb) != lb || ba.getOrElseUpdate(lb, la) != la
      }.map { case (k, _) => s"item $k: classes differ" }
    }

  /** Every class of `fine` lies inside one class of `coarse`. */
  def refines(fine: collection.Map[Long, Long], coarse: collection.Map[Long, Long]): Option[String] = {
    val seen = mutable.LongMap.empty[Long]
    fine.find { case (k, l) => seen.getOrElseUpdate(l, coarse(k)) != coarse(k) }
      .map { case (k, _) => s"item $k: class spans two coarse classes" }
  }

  /** Weakly-connected components of the interactions' endpoints, by
    * union-find: vertex → smallest vertex of its component.
    */
  def components(rs: Array[Interaction]): mutable.LongMap[Long] = {
    val parent = mutable.LongMap.empty[Long]
    def find(x: Long): Long = {
      var r = x
      while (parent(r) != r) r = parent(r)
      var y = x
      while (parent(y) != r) { val n = parent(y); parent(y) = r; y = n }
      r
    }
    rs.foreach { r =>
      parent.getOrElseUpdate(r.s, r.s); parent.getOrElseUpdate(r.d, r.d)
      val (a, b) = (find(r.s), find(r.d))
      if (a != b) { if (a < b) parent(b) = a else parent(a) = b }
    }
    val out = mutable.LongMap.empty[Long]
    parent.keysIterator.foreach(v => out(v) = find(v))
    out
  }
}
