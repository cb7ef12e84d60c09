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
  *   - LeastRecentlyBorn / MostRecentlyBorn (§4.1): min/max-heap keyed on
  *     birth time (ties broken by element creation sequence, which makes
  *     runs deterministic); elements are (origin, birth, quantity) triples.
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
  * arrays: 8 B per relay hop.
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
  private val totals = mutable.LongMap.empty[Double]
  private var seqCounter = 0L
  private var elemCount = 0L
  private var entryBytesLive = 0L
  private var entryBytesPeak = 0L
  private var pathBytesLive = 0L
  private var pathBytesPeak = 0L

  private def newElem(origin: Long, birth: Long, q: Double, path: List[Long],
                      hops: Int): Elem = {
    seqCounter += 1
    elemCount += 1
    memory.charge(entryBytes)
    entryBytesLive += entryBytes
    if (entryBytesLive > entryBytesPeak) entryBytesPeak = entryBytesLive
    if (trackPaths) chargePath(hops.toLong)
    new Elem(origin, birth, q, path, hops, seqCounter)
  }

  private def chargePath(hops: Long): Unit = {
    val b = hops * MemoryModel.PathNodeBytes
    memory.charge(b)
    pathBytesLive += b
    if (pathBytesLive > pathBytesPeak) pathBytesPeak = pathBytesLive
  }

  /** Uncharge a merged-away arrival (consolidated buffers only). */
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
      b = if (withBirth) new HeapBuf(policy)
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
    if (src != null) {
      while (resq > Eps && src.nonEmpty) {
        val tau = src.peek
        if (tau.q > resq + Eps) { // split τ: keep remainder at source
          tau.q -= resq
          moved += newElem(tau.origin, tau.birth, resq, tau.path, tau.hops)
          resq = 0.0
        } else { // transfer the whole element
          src.pop()
          resq -= tau.q
          moved += tau
        }
      }
      if (resq < Eps) resq = 0.0
    }
    if (trackPaths) {
      var i = 0
      while (i < moved.length) {
        val e = moved(i); e.path = r.s :: e.path; e.hops += 1; chargePath(1L); i += 1
      }
    }
    val dst = bufOf(r.d)
    dst.receive(moved)
    if (resq > Eps) { // newborn quantity at the source (Alg. 2 lines 18–21)
      val path = if (trackPaths) List(r.s) else Nil
      dst.receiveNewborn(newElem(r.s, r.t, resq, path, 0))
      resq = 0.0
    }
    val ts = totals.getOrElse(r.s, 0.0)
    totals(r.s) = ts - math.min(r.q, ts) // relayed part leaves the source
    totals(r.d) = totals.getOrElse(r.d, 0.0) + r.q
  }

  override def bufferTotal(v: Long): Double = totals.getOrElse(v, 0.0)

  override def provenance(v: Long): Seq[ProvEntry] =
    buffers.get(v).map(_.elements.map(_.toProv(withBirth, trackPaths))).getOrElse(Nil)

  override def vertices: Iterator[Long] =
    buffers.iterator.collect { case (v, b) if b.nonEmpty => v }

  /** Live provenance elements across all buffers. */
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
      var total = 0.0
      pairs.foreach { case (o, q) =>
        b.receiveNewborn(newElem(o, -1L, q, Nil, 0)) // appends at tail, keeping order
        total += q
      }
      totals(v) = total
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

  /** A quantity element in a buffer. `path` is most-recent-transmitter
    * first; the origin is its last node.
    */
  private[core] final class Elem(
      val origin: Long,
      val birth: Long,
      var q: Double,
      var path: List[Long],
      var hops: Int, // relays past the origin == path.length - 1, cached O(1)
      val seq: Long,
  ) {
    def toProv(withBirth: Boolean, withPath: Boolean): ProvEntry =
      ProvEntry(
        origin,
        q,
        if (withBirth) birth else -1L,
        if (withPath) path.reverse else Nil,
      )
  }

  /** Buffer behaviour that varies by policy. */
  private sealed trait Buf {
    def nonEmpty: Boolean
    /** Next element the policy would transfer (not removed). */
    def peek: Elem
    /** Remove the element returned by [[peek]]. */
    def pop(): Unit
    /** Add a transferred chunk, given in selection (pop) order. */
    def receive(chunk: collection.IndexedSeq[Elem]): Unit
    /** Add a newborn element (after the chunk). */
    def receiveNewborn(e: Elem): Unit
    /** All elements in the buffer's canonical display order. */
    def elements: Seq[Elem]
  }

  /** Birth time, then creation sequence, compared as primitives. */
  private val byBirth: Ordering[Elem] = new Ordering[Elem] {
    def compare(a: Elem, b: Elem): Int = {
      val c = java.lang.Long.compare(a.birth, b.birth)
      if (c != 0) c else java.lang.Long.compare(a.seq, b.seq)
    }
  }

  /** §4.1 — heap keyed on birth time. */
  private final class HeapBuf(policy: Policy) extends Buf {
    // mutable.PriorityQueue dequeues the maximum; LRB needs the minimum.
    private val h = mutable.PriorityQueue.empty[Elem](
      if (policy == Policy.LeastRecentlyBorn) byBirth.reverse else byBirth)
    def nonEmpty: Boolean = h.nonEmpty
    def peek: Elem = h.head
    def pop(): Unit = { h.dequeue(); () }
    def receive(chunk: collection.IndexedSeq[Elem]): Unit = {
      var i = 0
      while (i < chunk.length) { h += chunk(i); i += 1 }
    }
    def receiveNewborn(e: Elem): Unit = h += e
    def elements: Seq[Elem] = h.toSeq.sorted(byBirth)
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
    def elements: Seq[Elem] = d.toSeq // head→tail == queue order / stack bottom→top
  }
}
