package repro.core

import scala.collection.mutable

/** Algorithm 3 over sparse lists (§4.3): the kernel of [[ProportionalSparse]],
  * [[WindowedProvenance]] and [[BudgetProvenance]]. Each vertex's p_v holds
  * its non-zero fragments as parallel primitive arrays sorted by origin,
  * plus |B_v|. A relay's ⊕/⊖ is one linear merge into a scratch pair the
  * store reuses, so a warm replay allocates nothing per interaction. Every
  * stored fragment is charged `PairBytes`; a fragment ≤ Eps is never
  * stored. A self-loop s → s relays nothing; only q − |B_s| is born at s.
  */
private[core] final class SparseLists(memory: MemoryModel) {
  private val Eps = ProvenanceEngine.Eps

  /** One vertex's list: `n` fragments sorted by origin, |B_v|, shrinks. */
  private final class Plist {
    var o = new Array[Long](4); var q = new Array[Double](4); var n = 0
    var total = 0.0; var shrinks = 0L
    def ensure(cap: Int): Unit = if (o.length < cap) {
      o = java.util.Arrays.copyOf(o, 2 * cap); q = java.util.Arrays.copyOf(q, 2 * cap)
    }
  }

  private val lists = mutable.LongMap.empty[Plist]
  private val empty = new Plist // stands for every vertex not seen yet; never written
  private var mergedO = new Array[Long](16)
  private var mergedQ = new Array[Double](16)
  private var rank = new Array[Int](16)

  private def charge(k: Int): Unit = memory.charge(k * MemoryModel.PairBytes)

  private def listOf(v: Long): Plist = {
    var l = lists.getOrNull(v)
    if (l == null) { l = new Plist; lists.update(v, l) }
    l
  }

  private def at(v: Long): Plist = { val l = lists.getOrNull(v); if (l == null) empty else l }

  /** One interaction `s → d` of quantity `q`: a whole move when `q`
    * covers |B_s|, the rest born at `s`; otherwise a proportional split.
    */
  def relay(s: Long, d: Long, q: Double): Unit = {
    val ps = listOf(s); val bs = ps.total
    if (s == d) {
      if (q - bs > Eps) add(ps, s, q - bs)
      ps.total = math.max(bs, q)
    } else {
      val pd = listOf(d)
      if (q >= bs - Eps) {
        merge(ps, pd, 1.0, whole = true)
        if (q - bs > Eps) add(pd, s, q - bs)
        ps.total = 0.0
      } else {
        merge(ps, pd, q / bs, whole = false)
        ps.total = bs - q
      }
      pd.total += q
    }
  }

  /** Merges `frac` of every fragment of `ps` into `pd`. A whole move
    * charges the destination's new fragments, then uncharges the emptied
    * source; a split charges per origin, destination then source, and
    * drops a source remainder ≤ Eps.
    */
  private def merge(ps: Plist, pd: Plist, frac: Double, whole: Boolean): Unit = {
    if (ps.n == 0) return
    val need = ps.n + pd.n
    if (mergedO.length < need) { mergedO = new Array(2 * need); mergedQ = new Array(2 * need) }
    val so = ps.o; val sq = ps.q; val dO = pd.o; val dq = pd.q; val mo = mergedO; val mq = mergedQ
    var i = 0; var j = 0; var k = 0; var w = 0
    while (i < ps.n) {
      val o = so(i)
      while (j < pd.n && dO(j) < o) { mo(k) = dO(j); mq(k) = dq(j); j += 1; k += 1 }
      val m = sq(i) * frac
      if (j < pd.n && dO(j) == o) { mo(k) = o; mq(k) = dq(j) + m; j += 1; k += 1 }
      else if (m > Eps) { mo(k) = o; mq(k) = m; k += 1; charge(1) }
      if (!whole) {
        val rest = sq(i) - m
        if (rest > Eps) { so(w) = o; sq(w) = rest; w += 1 } else charge(-1)
      }
      i += 1
    }
    if (whole) charge(-ps.n)
    ps.n = w
    while (j < pd.n) { mo(k) = dO(j); mq(k) = dq(j); j += 1; k += 1 }
    pd.ensure(k)
    System.arraycopy(mo, 0, pd.o, 0, k)
    System.arraycopy(mq, 0, pd.q, 0, k)
    pd.n = k
  }

  /** Adds `q` of `origin` to `l`: a newborn, or α's share of a shrink. */
  private def add(l: Plist, origin: Long, q: Double): Unit = {
    val i = java.util.Arrays.binarySearch(l.o, 0, l.n, origin)
    if (i >= 0) l.q(i) += q
    else if (q > Eps) {
      val at = -i - 1
      l.ensure(l.n + 1)
      System.arraycopy(l.o, at, l.o, at + 1, l.n - at)
      System.arraycopy(l.q, at, l.q, at + 1, l.n - at)
      l.o(at) = origin; l.q(at) = q; l.n += 1
      charge(1)
    }
  }

  /** Replaces every list by `[(alpha, |B_v|)]`, vertex by vertex. */
  def resetAll(alpha: Long): Unit = lists.foreachValue { l =>
    charge(-l.n)
    l.n = 0
    if (l.total > Eps) add(l, alpha, l.total)
  }

  /** Keeps the `keep` non-α fragments of `v` with the largest quantities
    * (ties: smallest origin) and folds the others into `alpha`.
    */
  def shrink(v: Long, keep: Int, alpha: Long): Unit = {
    val l = listOf(v)
    val o = l.o; val q = l.q
    if (rank.length < l.n) rank = new Array(2 * l.n)
    var m = 0; var i = 0
    while (i < l.n) { // stable binary insertion by descending quantity
      if (o(i) != alpha) {
        var lo = 0; var hi = m
        while (lo < hi) {
          val mid = (lo + hi) >>> 1; if (q(rank(mid)) >= q(i)) lo = mid + 1 else hi = mid
        }
        System.arraycopy(rank, lo, rank, lo + 1, m - lo)
        rank(lo) = i; m += 1
      }
      i += 1
    }
    var removed = 0.0; i = keep
    while (i < m) { removed += q(rank(i)); q(rank(i)) = -1.0; i += 1 } // marks it dropped
    var w = 0; i = 0
    while (i < l.n) { if (q(i) >= 0) { o(w) = o(i); q(w) = q(i); w += 1 }; i += 1 }
    charge(w - l.n)
    l.n = w
    add(l, alpha, removed)
    l.shrinks += 1
  }

  def total(v: Long): Double = at(v).total
  def size(v: Long): Int = at(v).n
  def shrinksOf(v: Long): Long = at(v).shrinks

  def pairs(v: Long): Iterator[(Long, Double)] = {
    val l = at(v); Iterator.range(0, l.n).map(i => (l.o(i), l.q(i)))
  }
  def provenance(v: Long): Seq[ProvEntry] = {
    val l = at(v); Vector.tabulate(l.n)(i => ProvEntry(l.o(i), l.q(i)))
  }

  /** Vertices with |B_v| > Eps. */
  def vertices: Iterator[Long] = lists.iterator.collect { case (v, l) if l.total > Eps => v }

  /** Live fragments, counted over the lists. */
  def live: Long = lists.valuesIterator.map(_.n.toLong).sum

  /** Mean list length over the non-empty lists. */
  def avgListLength: Double = {
    val sizes = lists.valuesIterator.map(_.n).filter(_ > 0).toVector
    if (sizes.isEmpty) 0.0 else sizes.sum.toDouble / sizes.size
  }
}
