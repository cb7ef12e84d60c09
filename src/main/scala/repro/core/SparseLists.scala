package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** Algorithm 3 over sparse lists (§4.3): the kernel of [[ProportionalSparse]],
  * [[WindowedProvenance]] and [[BudgetProvenance]]. Each vertex's p_v holds
  * its non-zero fragments, plus |B_v|, in one of two exact forms:
  *
  *   - list form: parallel primitive arrays sorted by origin;
  *   - dense form, once the row is long: an `Array[Double]` indexed by
  *     `origin − base`, covering the store's origin range (every origin
  *     ever stored in it), and a bitmap of the stored origins. Unstored
  *     slots hold 0.
  *
  * A relay's ⊕/⊖ walks the source's stored origins in ascending order
  * (list entries, or set bits) and reaches the destination by a sorted
  * merge into a scratch pair the store reuses (list destination) or by
  * index (dense destination). Either way every stored fragment is charged
  * `PairBytes`, a fragment ≤ Eps is never stored, and the charges come in
  * the same order, so the two forms meter identically and give identical
  * values. A self-loop s → s relays nothing; only q − |B_s| is born at s.
  *
  * A list destination turns dense before a merge when the source is dense
  * or the two lists together hold at least 1/[[SparseLists.DenseRatio]]
  * of the store's origin range, or of one bitmap word while the range is
  * narrower (the array-vs-bitmap container rule of Roaring bitmaps). A dense row turns back into a list when a whole move
  * empties it, at [[resetAll]], before a [[shrink]], or when the store's
  * origin range outgrows [[SparseLists.MaxWidth]]. It then keeps its
  * zeroed dense arrays, if they span at most [[SparseLists.MaxKeptWidth]]
  * origins, to reuse if it turns dense again; they are sized with slack,
  * so α joining the range at a reset does not outgrow them.
  *
  * Real and metered bytes: a list row of n fragments holds 16–32 B per
  * fragment (arrays grow by doubling) against 16 B metered. A dense row
  * over a range of width w holds about 8.1·w B; it turned dense at about
  * w / DenseRatio fragments, metered 16·w / DenseRatio = 2·w B, so it
  * holds up to about 4× its metered bytes. A list that kept zeroed dense
  * arrays holds them beside its metered fragments.
  */
private[core] final class SparseLists(memory: MemoryModel) {
  import SparseLists._
  private val Eps = ProvenanceEngine.Eps

  /** One vertex's p_v: `n` fragments, |B_v| and its shrink count. In list
    * form `o`/`q` hold the fragments; in dense form they are null and
    * `d`/`bits` hold them over origins `base until base + d.length`.
    */
  private final class Row {
    var o = NoOrigins; var q = NoQuantities; var n = 0
    var dense = false
    var d: Array[Double] = null; var bits: Array[Long] = null; var base = 0L
    var total = 0.0; var shrinks = 0L
    def ensure(cap: Int): Unit = if (o.length < cap) {
      o = java.util.Arrays.copyOf(o, math.max(4, 2 * cap))
      q = java.util.Arrays.copyOf(q, o.length)
    }
  }

  private val rows = mutable.LongMap.empty[Row]
  private val empty = new Row // stands for every vertex not seen yet; never written
  private var mergedO = new Array[Long](16)
  private var mergedQ = new Array[Double](16)
  private var rank = new Array[Int](16)

  /** The store's origin range, `lo..hi`, and its width (`Long.MaxValue`
    * once wider than [[MaxWidth]]); empty while `lo > hi`.
    */
  private var lo = Long.MaxValue
  private var hi = Long.MinValue
  private var width = 0L

  /** Form switches, for tests: list → dense; dense → list on a whole
    * move, a reset, a shrink and an outgrown range.
    */
  private[core] var densified = 0L
  private[core] var listedByMove = 0L
  private[core] var listedByReset = 0L
  private[core] var listedByShrink = 0L
  private[core] var listedByWidth = 0L

  private def charge(k: Int): Unit = memory.charge(k * MemoryModel.PairBytes)

  private def rowOf(v: Long): Row = {
    var r = rows.getOrNull(v)
    if (r == null) { r = new Row; rows.update(v, r) }
    r
  }

  private def at(v: Long): Row = { val r = rows.getOrNull(v); if (r == null) empty else r }

  /** One interaction `s → d` of quantity `q`: a whole move when `q`
    * covers |B_s|, the rest born at `s`; otherwise a proportional split.
    */
  def relay(s: Long, d: Long, q: Double): Unit = {
    val ps = rowOf(s); val bs = ps.total
    if (s == d) {
      if (q - bs > Eps) add(ps, s, q - bs)
      ps.total = math.max(bs, q)
    } else {
      val pd = rowOf(d)
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
  private def merge(ps: Row, pd: Row, frac: Double, whole: Boolean): Unit = {
    if (ps.n == 0) return
    if (pd.dense && !covers(pd)) regrow(pd)
    if (!pd.dense && width <= MaxWidth &&
        (ps.dense || (ps.n.toLong + pd.n) * DenseRatio >= math.max(width, MinDenseWidth)))
      toDense(pd)
    if (ps.dense && !pd.dense) { toList(ps); listedByWidth += 1 } // pd cannot turn dense
    if (pd.dense) {
      if (ps.dense) denseIntoDense(ps, pd, frac, whole) else listIntoDense(ps, pd, frac, whole)
    } else listIntoList(ps, pd, frac, whole)
    if (whole && ps.dense) { clear(ps); listedByMove += 1 }
  }

  private def listIntoList(ps: Row, pd: Row, frac: Double, whole: Boolean): Unit = {
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

  private def listIntoDense(ps: Row, pd: Row, frac: Double, whole: Boolean): Unit = {
    val so = ps.o; val sq = ps.q; val dd = pd.d; val db = pd.bits; val base = pd.base
    var i = 0; var w = 0; var added = 0
    while (i < ps.n) {
      val o = so(i); val m = sq(i) * frac
      val x = (o - base).toInt; val bit = 1L << x
      if ((db(x >>> 6) & bit) != 0) dd(x) += m
      else if (m > Eps) { dd(x) = m; db(x >>> 6) |= bit; added += 1; charge(1) }
      if (!whole) {
        val rest = sq(i) - m
        if (rest > Eps) { so(w) = o; sq(w) = rest; w += 1 } else charge(-1)
      }
      i += 1
    }
    if (whole) charge(-ps.n)
    ps.n = w
    pd.n += added
  }

  private def denseIntoDense(ps: Row, pd: Row, frac: Double, whole: Boolean): Unit = {
    val sd = ps.d; val sb = ps.bits; val dd = pd.d; val db = pd.bits
    val shift = (ps.base - pd.base).toInt
    var wi = 0; var added = 0; var dropped = 0
    while (wi < sb.length) {
      var word = sb(wi)
      while (word != 0) {
        val x = (wi << 6) + java.lang.Long.numberOfTrailingZeros(word)
        val v = sd(x); val m = v * frac
        val y = x + shift; val bit = 1L << y
        if ((db(y >>> 6) & bit) != 0) dd(y) += m
        else if (m > Eps) { dd(y) = m; db(y >>> 6) |= bit; added += 1; charge(1) }
        if (!whole) {
          val rest = v - m
          if (rest > Eps) sd(x) = rest
          else { sd(x) = 0.0; sb(wi) &= ~(1L << x); dropped += 1; charge(-1) }
        }
        word &= word - 1
      }
      wi += 1
    }
    if (whole) charge(-ps.n)
    else ps.n -= dropped
    pd.n += added
  }

  /** Adds `q` of `origin` to `r`: a newborn, or α's share of a shrink. */
  private def add(r: Row, origin: Long, q: Double): Unit =
    if (r.dense) {
      val x = origin - r.base
      if (x >= 0 && x < r.d.length) {
        val i = x.toInt; val bit = 1L << i
        if ((r.bits(i >>> 6) & bit) != 0) r.d(i) += q
        else if (q > Eps) {
          extend(origin)
          r.d(i) = q; r.bits(i >>> 6) |= bit; r.n += 1
          charge(1)
        }
      } else if (q > Eps) { // a new origin outside the row: not stored yet
        extend(origin)
        regrow(r)
        add(r, origin, q)
      }
    } else {
      val i = java.util.Arrays.binarySearch(r.o, 0, r.n, origin)
      if (i >= 0) r.q(i) += q
      else if (q > Eps) {
        val at = -i - 1
        r.ensure(r.n + 1)
        System.arraycopy(r.o, at, r.o, at + 1, r.n - at)
        System.arraycopy(r.q, at, r.q, at + 1, r.n - at)
        r.o(at) = origin; r.q(at) = q; r.n += 1
        extend(origin)
        charge(1)
      }
    }

  /** Widens the store's origin range to hold `origin`. */
  private def extend(origin: Long): Unit = if (origin < lo || origin > hi) {
    lo = math.min(lo, origin); hi = math.max(hi, origin)
    val span = hi - lo // negative on overflow
    width = if (span >= 0 && span < MaxWidth) span + 1 else Long.MaxValue
  }

  /** Whether dense row `r` has a slot for every origin of the store. */
  private def covers(r: Row): Boolean = {
    val top = hi - r.base
    r.base <= lo && top >= 0 && top < r.d.length
  }

  /** Zeroed dense arrays for more than `w` origins, in whole bitmap words:
    * `r`'s kept ones if they are large enough. The slack lets α join the
    * range at a reset without new arrays.
    */
  private def zeroedArrays(r: Row, w: Int): Unit =
    if (r.d == null || r.d.length <= w) {
      val cap = (w + 64) & ~63
      r.d = new Array[Double](cap); r.bits = new Array[Long](cap >>> 6)
    }

  /** List → dense over the store's range; the list arrays are released. */
  private def toDense(r: Row): Unit = {
    zeroedArrays(r, width.toInt)
    r.base = lo
    var i = 0
    while (i < r.n) {
      val x = (r.o(i) - lo).toInt
      r.d(x) = r.q(i); r.bits(x >>> 6) |= 1L << x
      i += 1
    }
    r.o = null; r.q = null; r.dense = true
    densified += 1
  }

  /** Calls `f` on the set bits of `bits`, in ascending order. */
  private def foreachBit(bits: Array[Long])(f: Int => Unit): Unit = {
    var wi = 0
    while (wi < bits.length) {
      var word = bits(wi)
      while (word != 0) {
        f((wi << 6) + java.lang.Long.numberOfTrailingZeros(word))
        word &= word - 1
      }
      wi += 1
    }
  }

  /** Calls `f` on `r`'s fragments in ascending origin order. */
  private def foreachEntry(r: Row)(f: (Long, Double) => Unit): Unit =
    if (r.dense) foreachBit(r.bits)(x => f(r.base + x, r.d(x)))
    else {
      var i = 0
      while (i < r.n) { f(r.o(i), r.q(i)); i += 1 }
    }

  /** Zeroes dense row `r`'s arrays for reuse, or drops them if they span
    * more than [[MaxKeptWidth]] origins.
    */
  private def zero(r: Row): Unit =
    if (r.d.length > MaxKeptWidth) { r.d = null; r.bits = null }
    else {
      foreachBit(r.bits)(x => r.d(x) = 0.0)
      java.util.Arrays.fill(r.bits, 0L)
    }

  /** Dense → list, keeping the fragments. */
  private def toList(r: Row): Unit = {
    val o = new Array[Long](math.max(4, r.n)); val q = new Array[Double](o.length)
    var k = 0
    foreachEntry(r) { (origin, qty) => o(k) = origin; q(k) = qty; k += 1 }
    zero(r)
    r.o = o; r.q = q; r.dense = false
  }

  /** Dense → an empty list. */
  private def clear(r: Row): Unit = {
    zero(r)
    r.o = NoOrigins; r.q = NoQuantities; r.n = 0; r.dense = false
  }

  /** Moves dense row `r` onto arrays over the store's current range, or
    * back to a list if that range is too wide.
    */
  private def regrow(r: Row): Unit =
    if (width > MaxWidth) { toList(r); listedByWidth += 1 }
    else {
      val d = r.d; val bits = r.bits; val shift = r.base - lo
      r.d = null
      zeroedArrays(r, (width + (width >> 3)).toInt) // geometric, for a range that keeps growing
      r.base = lo
      foreachBit(bits) { x =>
        val y = (x + shift).toInt
        r.d(y) = d(x); r.bits(y >>> 6) |= 1L << y
      }
    }

  /** Replaces every list by `[(alpha, |B_v|)]`, vertex by vertex. */
  def resetAll(alpha: Long): Unit = rows.foreachValue { r =>
    charge(-r.n)
    if (r.dense) { clear(r); listedByReset += 1 }
    r.n = 0
    if (r.total > Eps) add(r, alpha, r.total)
  }

  /** Keeps the `keep` non-α fragments of `v` with the largest quantities
    * (ties: smallest origin) and folds the others into `alpha`.
    */
  def shrink(v: Long, keep: Int, alpha: Long): Unit = {
    val l = rowOf(v)
    if (l.dense) { toList(l); listedByShrink += 1 }
    val o = l.o; val q = l.q
    if (rank.length < l.n) rank = new Array(2 * l.n)
    var m = 0; var i = 0
    while (i < l.n) { // stable binary insertion by descending quantity
      if (o(i) != alpha) {
        var a = 0; var b = m
        while (a < b) {
          val mid = (a + b) >>> 1; if (q(rank(mid)) >= q(i)) a = mid + 1 else b = mid
        }
        System.arraycopy(rank, a, rank, a + 1, m - a)
        rank(a) = i; m += 1
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

  /** `v`'s fragments in ascending origin order, read lazily. */
  def pairs(v: Long): Iterator[(Long, Double)] = {
    val r = at(v)
    if (r.dense) Iterator.range(0, r.d.length).filter(x => (r.bits(x >>> 6) & (1L << x)) != 0)
      .map(x => (r.base + x, r.d(x)))
    else Iterator.range(0, r.n).map(i => (r.o(i), r.q(i)))
  }

  def provenance(v: Long): Seq[ProvEntry] = {
    val r = at(v); val out = new Array[ProvEntry](r.n); var k = 0
    foreachEntry(r) { (o, q) => out(k) = ProvEntry(o, q); k += 1 }
    ArraySeq.unsafeWrapArray(out)
  }

  /** Vertices with |B_v| > Eps. */
  def vertices: Iterator[Long] = rows.iterator.collect { case (v, r) if r.total > Eps => v }

  /** Adds the fragments of every vertex with |B_v| > Eps to `out`:
    * vertices ascending, each one's fragments in ascending origin order.
    */
  def addEntries(out: SnapshotRows): Unit = {
    val vs = vertices.toArray
    java.util.Arrays.sort(vs)
    vs.foreach { v => out.vertex(v); foreachEntry(rows(v))((o, q) => out += ProvEntry(o, q)) }
  }

  /** Live fragments, counted over the rows. */
  def live: Long = rows.valuesIterator.map(_.n.toLong).sum

  /** Mean list length over the non-empty rows. */
  def avgListLength: Double = {
    val sizes = rows.valuesIterator.map(_.n).filter(_ > 0).toVector
    if (sizes.isEmpty) 0.0 else sizes.sum.toDouble / sizes.size
  }
}

private[core] object SparseLists {

  /** A list row turns dense once it would hold at least 1/DenseRatio of
    * the store's origin range. Set by measurement on `relay-flights` (629
    * origins) among 2, 4, 8 and 16: sparse replays about as fast at 4–16
    * and slower at 2; windowed is fastest, and allocates least short of
    * 16, at 8; at 16 the budget rows of C = 20 turn dense and shrink back.
    */
  val DenseRatio = 8

  /** A dense row spans at least one bitmap word of origins, so a list
    * turns dense at no fewer than `MinDenseWidth / DenseRatio` fragments
    * however narrow the range: narrower ranges made short rows turn
    * dense that were soon shrunk or regrown back.
    */
  val MinDenseWidth = 64L

  /** The widest origin range a dense row may span. */
  val MaxWidth: Long = 1L << 27

  /** The widest dense arrays a list keeps for reuse (64 KB): narrow ones
    * save their reallocation after every whole move or reset; wide ones
    * would hold much more heap than the list's metered bytes.
    */
  val MaxKeptWidth = 1 << 13

  /** The arrays of every empty list until it is first written. */
  private val NoOrigins = new Array[Long](0)
  private val NoQuantities = new Array[Double](0)
}
