package repro.core

import scala.collection.mutable

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
  private val entryBytes =
    if (withBirth) MemoryModel.TripleBytes else MemoryModel.PairBytes

  private val buffers = mutable.LongMap.empty[Buf]
  private var events = 0L
  private var elemCount = 0L
  private var entryBytesLive = 0L
  private var entryBytesPeak = 0L
  private var pathBytesLive = 0L
  private var pathBytesPeak = 0L

  private def newElem(origin: Long, birth: Long, event: Long, q: Double, path: List[Long],
                      hops: Int): Elem = {
    elemCount += 1
    memory.charge(entryBytes)
    entryBytesLive += entryBytes
    if (entryBytesLive > entryBytesPeak) entryBytesPeak = entryBytesLive
    if (trackPaths) chargePath(hops.toLong)
    new Elem(origin, birth, event, q, path, hops)
  }

  /** A newborn element, with the next event number. */
  private def newborn(origin: Long, birth: Long, q: Double, path: List[Long]): Elem = {
    events += 1
    newElem(origin, birth, events, q, path, 0)
  }

  private def chargePath(hops: Long): Unit = {
    val b = hops * MemoryModel.PathNodeBytes
    memory.charge(b)
    pathBytesLive += b
    if (pathBytesLive > pathBytesPeak) pathBytesPeak = pathBytesLive
  }

  /** Uncharge an arrival that was added into an existing entry. */
  private def discard(e: Elem): Unit = {
    elemCount -= 1
    memory.charge(-entryBytes)
    entryBytesLive -= entryBytes
    if (trackPaths) {
      val hopBytes = e.hops.toLong * MemoryModel.PathNodeBytes
      memory.charge(-hopBytes)
      pathBytesLive -= hopBytes
    }
  }

  private def bufOf(v: Long): Buf = {
    var b = buffers.getOrNull(v)
    if (b == null) {
      b = if (withBirth) new SortedBuf(policy == Policy.MostRecentlyBorn, discard)
          else new DequeBuf(policy == Policy.Lifo, consolidate, discard)
      buffers.update(v, b)
    }
    b
  }

  /** Elements selected by the current interaction, in selection order. */
  private val moved = mutable.ArrayBuffer.empty[Elem]

  override def process(r: Interaction): Unit = {
    var resq = r.q
    val src = buffers.getOrNull(r.s)
    moved.clear()
    var split: Elem = null // birth-keyed τ split by this interaction;
    var splitQ = 0.0       // its part `splitQ` moves too
    if (src != null) {
      while (resq > Eps && src.nonEmpty) {
        val tau = src.peek
        if (tau.q > resq + Eps) { // split τ: keep remainder at source
          tau.q -= resq
          if (withBirth) { split = tau; splitQ = resq }
          else moved += newElem(tau.origin, tau.birth, tau.event, resq, tau.path, tau.hops)
          resq = 0.0
        } else { // transfer the whole element
          src.pop()
          resq -= tau.q
          moved += tau
        }
      }
      if (resq < Eps) resq = 0.0
      src.total -= math.min(r.q, src.total) // relayed part leaves the source
    }
    if (trackPaths) {
      var i = 0
      while (i < moved.length) {
        val e = moved(i); e.path = r.s :: e.path; e.hops += 1; chargePath(1L); i += 1
      }
    }
    val dst = bufOf(r.d)
    dst.receive(moved)
    if (split != null && !dst.addTo(split.birth, split.event, splitQ)) {
      // the part's newborn has no entry at r.d yet: the part becomes one
      dst.receiveNewborn(
        if (trackPaths)
          newElem(split.origin, split.birth, split.event, splitQ, r.s :: split.path, split.hops + 1)
        else newElem(split.origin, split.birth, split.event, splitQ, Nil, 0))
    }
    if (resq > Eps) { // newborn quantity at the source (Alg. 2 lines 18–21)
      dst.receiveNewborn(newborn(r.s, r.t, resq, if (trackPaths) List(r.s) else Nil))
      resq = 0.0
    }
    dst.total += r.q
  }

  override def bufferTotal(v: Long): Double = {
    val b = buffers.getOrNull(v)
    if (b == null) 0.0 else b.total
  }

  /** Buffer entries in the buffer's order: queue head→tail, stack
    * bottom→top, or birth order (oldest first) for LRB/MRB.
    */
  override def provenance(v: Long): Seq[ProvEntry] =
    buffers.get(v).map(_.elements.map(_.toProv(withBirth, trackPaths))).getOrElse(Nil)

  override def vertices: Iterator[Long] =
    buffers.iterator.collect { case (v, b) if b.nonEmpty => v }

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
    buffers.iterator.collect {
      case (v, b) if b.nonEmpty => v -> b.elements.map(e => (e.origin, e.q)).toVector
    }.toMap
  }

  /** Restore buffers previously captured by [[exportQueues]]. Must be
    * called on a fresh engine.
    */
  def importQueues(state: Map[Long, Vector[(Long, Double)]]): this.type = {
    require(!withBirth && !trackPaths && !consolidate,
            "importQueues supports plain FIFO/LIFO only")
    require(buffers.isEmpty, "importQueues requires a fresh engine")
    state.foreach { case (v, pairs) =>
      val b = bufOf(v)
      pairs.foreach { case (o, q) =>
        b.receiveNewborn(newborn(o, -1L, q, Nil)) // appends at tail, keeping order
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
    buffers.valuesIterator.foreach(_.elements.foreach { e =>
      n += 1; sum += e.hops
    })
    if (n == 0) 0.0 else sum.toDouble / n
  }
}

object OrderedEngine {
  private val Eps = ProvenanceEngine.Eps

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
    /** Add a transferred chunk, given in selection (pop) order. */
    def receive(chunk: collection.IndexedSeq[Elem]): Unit
    /** Add one new element after the chunk: a newborn, or a birth-keyed
      * part whose newborn has no entry here.
      */
    def receiveNewborn(e: Elem): Unit
    /** Add `q` of newborn `event` into its entry; false if there is none. */
    def addTo(birth: Long, event: Long, q: Double): Boolean
    /** All elements in the buffer's canonical display order. */
    def elements: Seq[Elem]
  }

  /** §4.1 — entries `a(lo until hi)` sorted by (birth, event), oldest
    * first, at most one per newborn event. MRB (`youngFirst`) selects
    * from the young end, LRB from the old end. An arrival for a newborn
    * that already has an entry is added into it (`onDiscard` uncharges
    * the arrival).
    */
  private final class SortedBuf(youngFirst: Boolean, onDiscard: Elem => Unit) extends Buf {
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

    def addTo(birth: Long, event: Long, q: Double): Boolean = {
      val i = find(birth, event)
      if (i < hi && a(i).event == event) { a(i).q += q; true } else false
    }

    private def insert(e: Elem): Unit = {
      var i = find(e.birth, e.event)
      if (i < hi && a(i).event == e.event) { a(i).q += e.q; onDiscard(e) }
      else {
        if (lo == 0 || hi == a.length) i += makeRoom()
        if (i - lo < hi - i) { // shift the older side down by one
          System.arraycopy(a, lo, a, lo - 1, i - lo); lo -= 1; a(i - 1) = e
        } else {
          System.arraycopy(a, i, a, i + 1, hi - i); hi += 1; a(i) = e
        }
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

    def receive(chunk: collection.IndexedSeq[Elem]): Unit = {
      var i = 0
      while (i < chunk.length) { insert(chunk(i)); i += 1 }
    }
    def receiveNewborn(e: Elem): Unit = insert(e)
    def elements: Seq[Elem] = a.slice(lo, hi).toSeq
  }

  /** §4.2 — FIFO queue (`lifoMode = false`) or LIFO stack. With
    * `consolidate`, at most one entry per origin: arrivals for a known
    * origin add to the existing entry in place (`onDiscard` lets the
    * engine uncharge the merged-away arrival).
    */
  private final class DequeBuf(lifoMode: Boolean, consolidate: Boolean,
                               onDiscard: Elem => Unit) extends Buf {
    private val d = mutable.ArrayDeque.empty[Elem]
    private val idx = if (consolidate) mutable.LongMap.empty[Elem] else null
    def nonEmpty: Boolean = d.nonEmpty
    def peek: Elem = if (lifoMode) d.last else d.head
    def pop(): Unit = {
      val e = if (lifoMode) d.removeLast() else d.removeHead()
      if (idx != null) idx.remove(e.origin)
      ()
    }
    private def insert(e: Elem): Unit = {
      if (idx != null) {
        idx.getOrNull(e.origin) match {
          case null => idx(e.origin) = e; d.append(e)
          case ex   => ex.q += e.q; onDiscard(e) // existing entry keeps place+path
        }
      } else d.append(e)
    }
    def receive(chunk: collection.IndexedSeq[Elem]): Unit = {
      var i = 0
      while (i < chunk.length) { // LIFO keeps the source orientation
        insert(if (lifoMode) chunk(chunk.length - 1 - i) else chunk(i)); i += 1
      }
    }
    def receiveNewborn(e: Elem): Unit = insert(e)
    def addTo(birth: Long, event: Long, q: Double): Boolean = false // parts come as elements
    def elements: Seq[Elem] = d.toSeq // head→tail == queue order / stack bottom→top
  }
}
