package repro.core

import scala.collection.immutable.ArraySeq

/** Algorithm 2, generalised over the four ordered selection policies.
  *
  * Buffers hold discrete quantity *elements*. Per interaction, elements
  * are selected from the source buffer until `r.q` is covered (splitting
  * the last one if needed — the Alg. 2 line 11 `τ.q −= r.q` is the
  * paper's typo for `τ.q −= resq`); any shortfall is generated as a
  * newborn element with origin `r.s` and birth `r.t`.
  *
  * Buffer organisation per policy:
  *   - LeastRecentlyBorn / MostRecentlyBorn (§4.1): one two-ended array
  *     per vertex, sorted by (birth time, newborn event), holding one
  *     (origin, birth, quantity) entry per newborn. Every newborn gets an
  *     event number from a per-engine counter and its split parts inherit
  *     it; a part arriving where its newborn already has an entry is added
  *     into that entry. LRB selects from the old end, MRB from the young
  *     end. Merging is exact: at any vertex the parts of one newborn are
  *     adjacent in selection order, so every (vertex, origin, birth)
  *     quantity equals element-wise Alg. 2's with ties between equal birth
  *     times broken by newborn order.
  *   - FIFO (§4.2): queue — selected from the head, transferred chunk
  *     appended at the destination tail in selection order.
  *   - LIFO (§4.2): stack — selected from the top; the transferred chunk
  *     keeps its source-relative orientation on the destination stack
  *     (verified element-by-element against Table 4), and a newborn
  *     element is pushed last. Elements are (origin, quantity) pairs.
  *
  * With `trackPaths = true` (§6) every element carries its relay route:
  * a newborn's path is just its origin; a split inherits the parent's
  * path; every element relayed from `r.s` to `r.d` has its path extended
  * with the transmitter `r.s`. Paths are stored most-recent-first with
  * structural sharing, but metered per element like the paper's flat
  * arrays: 8 B per relay hop. Where a birth-keyed part merges into its
  * newborn's entry, that entry keeps its path and the arrival's hop bytes
  * are uncharged, as for `consolidate` below.
  *
  * With `consolidate = true` (receipt-order policies only) an arriving
  * quantity whose origin already has an entry in the destination buffer
  * is merged into that entry (which keeps its queue position and its
  * path) instead of being appended. This is the Figure-1 buffer layout
  * ("a FIFO queue based on their origins") that the paper's measured C
  * implementation evidently uses — its Tables 8/10 element counts are
  * only reachable with per-origin entries — whereas the worked Table 4
  * keeps duplicates; both semantics are supported, defaulting to the
  * pseudocode-faithful one. Benchmarks use `consolidate = true`.
  * A consolidated buffer finds an origin's entry by scanning while it is
  * short, and through an open-addressing origin index once it is long.
  * An arrival is metered as a new entry and then uncharged if it merges,
  * but no element is allocated for a split part or newborn that merges.
  *
  * Buffers are held in an array indexed by vertex id, so ids must lie in
  * `0 until Interaction.VertexLimit`; an interaction with an endpoint
  * outside it is rejected with [[InvalidInteraction]].
  */
final class OrderedEngine(
    val policy: Policy,
    val trackPaths: Boolean = false,
    budgetBytes: Long = MemoryModel.Unbounded,
    val consolidate: Boolean = false,
) extends ProvenanceEngine {
  import OrderedEngine._

  require(Policy.ordered.contains(policy), s"$policy is not an ordered policy")
  require(!consolidate || !Policy.usesBirthTime(policy),
          "consolidation applies to the receipt-order policies only")

  val memory = new MemoryModel(budgetBytes)
  private val withBirth = Policy.usesBirthTime(policy)
  private val lifo = policy == Policy.Lifo
  private val entryBytes =
    if (withBirth) MemoryModel.TripleBytes else MemoryModel.PairBytes

  private var buffers = new Array[Buf](64) // by vertex id; null until first received
  private var events = 0L
  private var elemCount = 0L
  private var entryBytesLive = 0L
  private var entryBytesPeak = 0L
  private var pathBytesLive = 0L
  private var pathBytesPeak = 0L

  /** Meters one new entry carrying `hops` relay hops. */
  private def chargeEntry(hops: Int): Unit = {
    elemCount += 1
    memory.charge(entryBytes)
    entryBytesLive += entryBytes
    if (entryBytesLive > entryBytesPeak) entryBytesPeak = entryBytesLive
    if (trackPaths) chargePath(hops.toLong)
  }

  private def chargePath(hops: Long): Unit = {
    val b = hops * MemoryModel.PathNodeBytes
    memory.charge(b)
    pathBytesLive += b
    if (pathBytesLive > pathBytesPeak) pathBytesPeak = pathBytesLive
  }

  /** Uncharges an arrival of `hops` hops that was added into an existing entry. */
  private def uncharge(hops: Int): Unit = {
    elemCount -= 1
    memory.charge(-entryBytes)
    entryBytesLive -= entryBytes
    if (trackPaths) {
      val hopBytes = hops.toLong * MemoryModel.PathNodeBytes
      memory.charge(-hopBytes)
      pathBytesLive -= hopBytes
    }
  }

  /** Makes room for vertex ids up to `top`. */
  private def reach(top: Long): Unit =
    if (top >= buffers.length) buffers = java.util.Arrays.copyOf(buffers, Interaction.roomFor(top))

  private def bufOf(v: Int): Buf = {
    var b = buffers(v)
    if (b == null) {
      b = if (withBirth) new SortedBuf(policy == Policy.MostRecentlyBorn)
          else new DequeBuf(lifo, consolidate)
      buffers(v) = b
    }
    b
  }

  private def bufOrNull(v: Long): Buf =
    if (v >= 0 && v < buffers.length) buffers(v.toInt) else null

  /** Elements wholly selected by the current interaction, in selection order. */
  private var moved = new Array[Elem](16)
  private var nMoved = 0

  /** Places a wholly moved element at `dst`, uncharging it if it merges. */
  private def placeMoved(dst: Buf, e: Elem): Unit = if (dst.insert(e)) uncharge(e.hops)

  override def process(r: Interaction): Unit = {
    if ((r.s | r.d) < 0 || r.s >= buffers.length || r.d >= buffers.length)
      reach(Interaction.checkIds(r))
    var resq = r.q
    val src = buffers(r.s.toInt)
    nMoved = 0
    var split: Elem = null // τ split by this interaction;
    var splitQ = 0.0       // its part `splitQ` moves too
    if (src != null) {
      while (resq > Eps && src.nonEmpty) {
        val tau = src.peek
        if (tau.q > resq + Eps) { // split τ: keep remainder at source
          tau.q -= resq
          split = tau; splitQ = resq
          if (!withBirth) chargeEntry(tau.hops) // a receipt-order part is metered as it leaves
          resq = 0.0
        } else { // transfer the whole element
          src.pop()
          resq -= tau.q
          if (nMoved == moved.length) moved = java.util.Arrays.copyOf(moved, 2 * nMoved)
          moved(nMoved) = tau; nMoved += 1
        }
      }
      if (resq < Eps) resq = 0.0
      src.total -= math.min(r.q, src.total) // relayed part leaves the source
    }
    if (trackPaths) {
      var i = 0
      while (i < nMoved) {
        val e = moved(i); e.path = r.s :: e.path; e.hops += 1; chargePath(1L); i += 1
      }
      if (split != null && !withBirth) chargePath(1L) // the part, selected last
    }
    val dst = bufOf(r.d.toInt)
    if (withBirth) {
      var i = 0
      while (i < nMoved) { placeMoved(dst, moved(i)); i += 1 }
      if (split != null && !dst.addTo(split.origin, split.birth, split.event, splitQ)) {
        // the part's newborn has no entry at r.d yet: the part becomes one
        val hops = if (trackPaths) split.hops + 1 else 0
        chargeEntry(hops)
        dst.place(new Elem(split.origin, split.birth, split.event, splitQ,
                           if (trackPaths) r.s :: split.path else Nil, hops))
      }
    } else if (lifo) { // the chunk keeps its source orientation: the part goes first
      placePart(dst, split, splitQ, r.s)
      var i = nMoved - 1
      while (i >= 0) { placeMoved(dst, moved(i)); i -= 1 }
    } else {
      var i = 0
      while (i < nMoved) { placeMoved(dst, moved(i)); i += 1 }
      placePart(dst, split, splitQ, r.s)
    }
    java.util.Arrays.fill(moved.asInstanceOf[Array[AnyRef]], 0, nMoved, null)
    if (resq > Eps) { // newborn quantity at the source (Alg. 2 lines 18–21)
      events += 1
      chargeEntry(0)
      if (consolidate && dst.addTo(r.s, r.t, events, resq)) uncharge(0)
      else dst.place(new Elem(r.s, r.t, events, resq, if (trackPaths) List(r.s) else Nil, 0))
    }
    dst.total += r.q
  }

  /** Places the already metered receipt-order part `q` split off `tau`,
    * relayed by `s`: added into its origin's entry, or a new element.
    */
  private def placePart(dst: Buf, tau: Elem, q: Double, s: Long): Unit = if (tau != null) {
    val hops = if (trackPaths) tau.hops + 1 else tau.hops
    if (dst.addTo(tau.origin, tau.birth, tau.event, q)) uncharge(hops)
    else dst.place(new Elem(tau.origin, tau.birth, tau.event, q,
                            if (trackPaths) s :: tau.path else tau.path, hops))
  }

  override def bufferTotal(v: Long): Double = {
    val b = bufOrNull(v)
    if (b == null) 0.0 else b.total
  }

  /** Buffer entries in the buffer's order: queue head→tail, stack
    * bottom→top, or birth order (oldest first) for LRB/MRB.
    */
  override def provenance(v: Long): Seq[ProvEntry] = {
    val b = bufOrNull(v)
    if (b == null) Nil
    else {
      val out = ArraySeq.newBuilder[ProvEntry]
      b.foreach(e => out += e.toProv(withBirth, trackPaths))
      out.result()
    }
  }

  override def vertices: Iterator[Long] =
    Iterator.range(0, buffers.length).filter { v =>
      val b = buffers(v); b != null && b.nonEmpty
    }.map(_.toLong)

  override protected def addEntries(rows: SnapshotRows): Unit = {
    var v = 0
    while (v < buffers.length) {
      val b = buffers(v)
      if (b != null && b.nonEmpty) {
        rows.vertex(v.toLong)
        b.foreach(e => rows += e.toProv(withBirth, trackPaths))
      }
      v += 1
    }
  }

  /** Live provenance elements (buffer entries) across all buffers. */
  def liveElements: Long = elemCount

  /** Export receipt-order buffers as vertex → (origin, quantity) pairs in
    * queue order (head→tail / stack bottom→top). Used by the Structured
    * Streaming layer to persist engine state between micro-batches.
    * Only valid for FIFO/LIFO (no birth times, no paths).
    */
  def exportQueues: Map[Long, Vector[(Long, Double)]] = {
    require(!withBirth && !trackPaths && !consolidate,
            "exportQueues supports plain FIFO/LIFO only")
    vertices.map { v =>
      val q = Vector.newBuilder[(Long, Double)]
      buffers(v.toInt).foreach(e => q += ((e.origin, e.q)))
      v -> q.result()
    }.toMap
  }

  /** Restore buffers previously captured by [[exportQueues]]. Must be
    * called on a fresh engine.
    */
  def importQueues(state: Map[Long, Vector[(Long, Double)]]): this.type = {
    require(!withBirth && !trackPaths && !consolidate,
            "importQueues supports plain FIFO/LIFO only")
    require(buffers.forall(_ == null), "importQueues requires a fresh engine")
    state.foreach { case (v, pairs) =>
      require(v >= 0 && v < Interaction.VertexLimit, s"vertex id $v is outside the vertex domain")
      reach(v)
      val b = bufOf(v.toInt)
      pairs.foreach { case (o, q) =>
        events += 1
        chargeEntry(0)
        b.place(new Elem(o, -1L, events, q, Nil, 0)) // appends at tail, keeping order
        b.total += q
      }
    }
    this
  }

  /** Peak bytes of (origin[,birth],quantity) entries — Table 8 / Table 10
    * "mem entries" column.
    */
  def peakEntryBytes: Long = entryBytesPeak

  /** Peak bytes of stored path hops — Table 10 "mem paths" column. */
  def peakPathBytes: Long = pathBytesPeak

  /** Mean relay-path length (hops past the origin) over all buffered
    * elements — Table 10 last column. 0 when path tracking is off.
    */
  def avgPathLength: Double = {
    var n = 0L; var sum = 0L
    buffers.foreach(b => if (b != null) b.foreach { e => n += 1; sum += e.hops })
    if (n == 0) 0.0 else sum.toDouble / n
  }
}

object OrderedEngine {
  private val Eps = ProvenanceEngine.Eps

  /** A consolidated buffer longer than this finds origins through an
    * [[OriginIndex]] instead of a scan; it drops the index again once it
    * is shorter than half of this.
    */
  private[core] val IndexFrom = 16

  /** A quantity element in a buffer. `event` numbers the newborn it was
    * split from. `path` is most-recent-transmitter first; the origin is
    * its last node.
    */
  private[core] final class Elem(
      val origin: Long,
      val birth: Long,
      val event: Long,
      var q: Double,
      var path: List[Long],
      var hops: Int, // relays past the origin == path.length - 1, cached O(1)
  ) {
    def toProv(withBirth: Boolean, withPath: Boolean): ProvEntry =
      ProvEntry(
        origin,
        q,
        if (withBirth) birth else -1L,
        if (withPath) path.reverse else Nil,
      )
  }

  /** Buffer behaviour that varies by policy; `total` is |B_v|. */
  private sealed abstract class Buf {
    var total = 0.0
    def nonEmpty: Boolean
    /** Next element the policy would transfer (not removed). */
    def peek: Elem
    /** Remove the element returned by [[peek]]. */
    def pop(): Unit
    /** Adds `e` into the entry it merges with and returns true, or places
      * it as a new entry and returns false.
      */
    def insert(e: Elem): Boolean
    /** Places `e`, which merges with no entry here, as a new entry. */
    def place(e: Elem): Unit
    /** Adds `q` into the entry that an arrival of (origin, birth, event)
      * merges with; false if there is none.
      */
    def addTo(origin: Long, birth: Long, event: Long, q: Double): Boolean
    /** Calls `f` on the elements in the buffer's display order. */
    def foreach(f: Elem => Unit): Unit
  }

  /** §4.1 — entries `a(lo until hi)` sorted by (birth, event), oldest
    * first, at most one per newborn event. MRB (`youngFirst`) selects
    * from the young end, LRB from the old end. An arrival for a newborn
    * that already has an entry is added into it.
    */
  private final class SortedBuf(youngFirst: Boolean) extends Buf {
    private var a = new Array[Elem](4)
    private var lo = 2
    private var hi = 2
    def nonEmpty: Boolean = hi > lo
    def peek: Elem = if (youngFirst) a(hi - 1) else a(lo)
    def pop(): Unit =
      if (youngFirst) { hi -= 1; a(hi) = null } else { a(lo) = null; lo += 1 }

    private def before(e: Elem, birth: Long, event: Long): Boolean =
      e.birth < birth || (e.birth == birth && e.event < event)

    /** Index in `[lo, hi]` of the first entry not before (birth, event).
      * Both ends are tried first: every newborn lands at the young end.
      */
    private def find(birth: Long, event: Long): Int =
      if (hi == lo || before(a(hi - 1), birth, event)) hi
      else if (!before(a(lo), birth, event)) lo
      else {
        var l = lo + 1; var h = hi - 1 // a(l - 1) is before, a(h) is not
        while (l < h) {
          val m = (l + h) >>> 1
          if (before(a(m), birth, event)) l = m + 1 else h = m
        }
        l
      }

    def addTo(origin: Long, birth: Long, event: Long, q: Double): Boolean = {
      val i = find(birth, event)
      if (i < hi && a(i).event == event) { a(i).q += q; true } else false
    }

    def insert(e: Elem): Boolean = {
      val i = find(e.birth, e.event)
      if (i < hi && a(i).event == e.event) { a(i).q += e.q; true }
      else { insertAt(i, e); false }
    }

    def place(e: Elem): Unit = insertAt(find(e.birth, e.event), e)

    private def insertAt(at: Int, e: Elem): Unit = {
      var i = at
      if (lo == 0 || hi == a.length) i += makeRoom()
      if (i - lo < hi - i) { // shift the older side down by one
        System.arraycopy(a, lo, a, lo - 1, i - lo); lo -= 1; a(i - 1) = e
      } else {
        System.arraycopy(a, i, a, i + 1, hi - i); hi += 1; a(i) = e
      }
    }

    /** Re-centre the entries, in place if they fill under half of the
      * array, else in one twice as long; returns how far they moved.
      */
    private def makeRoom(): Int = {
      val n = hi - lo
      val b = if (2 * n < a.length) a else new Array[Elem](2 * a.length)
      val newLo = (b.length - n) / 2
      System.arraycopy(a, lo, b, newLo, n)
      if (b eq a) { // clear the slots left behind
        var i = lo
        while (i < hi) { if (i < newLo || i >= newLo + n) a(i) = null; i += 1 }
      }
      a = b
      val shift = newLo - lo
      lo = newLo; hi = newLo + n
      shift
    }

    def foreach(f: Elem => Unit): Unit = {
      var i = lo
      while (i < hi) { f(a(i)); i += 1 }
    }
  }

  /** §4.2 — FIFO queue (`lifoMode = false`) or LIFO stack over a ring
    * `a` of power-of-two length, from `head`, `n` long. With
    * `consolidate`, at most one entry per origin: an arrival for a known
    * origin adds into the existing entry, which keeps its place and path.
    * The entry is found by a scan of the ring, or through `index` while
    * the buffer is long.
    */
  private final class DequeBuf(lifoMode: Boolean, consolidate: Boolean) extends Buf {
    private var a = new Array[Elem](4)
    private var head = 0
    private var n = 0
    private var index: OriginIndex = null

    private def slot(i: Int): Int = (head + i) & (a.length - 1)
    def nonEmpty: Boolean = n > 0
    def peek: Elem = a(if (lifoMode) slot(n - 1) else head)

    def pop(): Unit = {
      val s = if (lifoMode) slot(n - 1) else head
      val e = a(s)
      a(s) = null
      if (!lifoMode) head = (head + 1) & (a.length - 1)
      n -= 1
      if (index != null) {
        if (2 * n < IndexFrom) index = null else index.remove(e.origin.toInt)
      }
    }

    def place(e: Elem): Unit = {
      if (n == a.length) grow()
      val s = slot(n)
      a(s) = e
      n += 1
      if (index != null) index.put(e.origin.toInt, s)
      else if (consolidate && n > IndexFrom) buildIndex()
    }

    /** Doubles the ring, moving the entries to its start. */
    private def grow(): Unit = {
      val b = new Array[Elem](2 * a.length)
      val first = math.min(n, a.length - head)
      System.arraycopy(a, head, b, 0, first)
      System.arraycopy(a, 0, b, first, n - first)
      a = b
      head = 0
      if (index != null) buildIndex()
    }

    private def buildIndex(): Unit = {
      index = new OriginIndex(2 * a.length)
      var i = 0
      while (i < n) { val s = slot(i); index.put(a(s).origin.toInt, s); i += 1 }
    }

    /** Slot of `origin`'s entry, or −1. */
    private def find(origin: Long): Int =
      if (index != null) index.get(origin.toInt)
      else {
        var i = 0
        while (i < n) {
          val s = slot(i)
          if (a(s).origin == origin) return s
          i += 1
        }
        -1
      }

    def addTo(origin: Long, birth: Long, event: Long, q: Double): Boolean =
      consolidate && {
        val s = find(origin)
        s >= 0 && { a(s).q += q; true }
      }

    def insert(e: Elem): Boolean =
      addTo(e.origin, e.birth, e.event, e.q) || { place(e); false }

    def foreach(f: Elem => Unit): Unit = { // head→tail == queue order / stack bottom→top
      var i = 0
      while (i < n) { f(a(slot(i))); i += 1 }
    }
  }

  /** Open-addressing map from origin (a vertex id, ≥ 0) to ring slot, with
    * linear probing in `capacity` (a power of two) cells. Deletion shifts
    * the rest of the probe run back (Knuth, TAOCP vol. 3, §6.4,
    * Algorithm R), so no tombstones pile up and the table never needs a
    * repack. Callers keep the load at most one half.
    */
  private final class OriginIndex(capacity: Int) {
    private val keys = Array.fill(capacity)(-1) // −1: empty cell
    private val slots = new Array[Int](capacity)
    private val mask = capacity - 1
    private val shift = Integer.numberOfLeadingZeros(capacity) + 1

    /** Fibonacci hashing: the top bits of `k·2^32/φ`. */
    private def home(k: Int): Int = (k * 0x9E3779B9) >>> shift

    def get(k: Int): Int = {
      var i = home(k)
      while (keys(i) != -1) {
        if (keys(i) == k) return slots(i)
        i = (i + 1) & mask
      }
      -1
    }

    def put(k: Int, s: Int): Unit = {
      var i = home(k)
      while (keys(i) != -1 && keys(i) != k) i = (i + 1) & mask
      keys(i) = k; slots(i) = s
    }

    /** Removes `k`, which must be present. */
    def remove(k: Int): Unit = {
      var i = home(k)
      while (keys(i) != k) i = (i + 1) & mask
      var j = i
      while (true) {
        j = (j + 1) & mask
        val kj = keys(j)
        if (kj == -1) { keys(i) = -1; return }
        // kj may fill the hole at i unless its home lies cyclically in (i, j]
        if (((j - home(kj)) & mask) >= ((j - i) & mask)) {
          keys(i) = kj; slots(i) = slots(j); i = j
        }
      }
    }
  }
}
