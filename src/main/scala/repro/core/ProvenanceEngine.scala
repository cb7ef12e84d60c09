package repro.core

import scala.collection.immutable.VectorBuilder

/** One (origin, quantity) component of a buffer's provenance
  * decomposition — a τ of Definition 2. `birth` is the generation time
  * where the policy tracks it (§4.1) and −1 otherwise; `path` is the
  * relay route (origin first) when path tracking is on, `Nil` otherwise.
  */
final case class ProvEntry(origin: Long, quantity: Double, birth: Long = -1L,
                           path: List[Long] = Nil)

/** Common surface of every provenance-tracking engine in the paper.
  *
  * Engines are single-threaded and mutable — they model the paper's C
  * implementation and are driven either locally or inside one Spark task
  * per connected component (see `repro.dist.DistributedProvenance`).
  */
trait ProvenanceEngine {

  /** Apply one interaction. Interactions MUST be fed in `(t, id)` order. */
  def process(r: Interaction): Unit

  /** Feed a whole time-ordered run. */
  final def processAll(rs: IterableOnce[Interaction]): this.type = {
    rs.iterator.foreach(process); this
  }

  /** Total quantity currently buffered at `v` (|B_v|). */
  def bufferTotal(v: Long): Double

  /** The provenance decomposition O(now, B_v) of vertex `v`'s buffer.
    * Entries are returned in the buffer's internal order where the policy
    * defines one (queue/stack order), otherwise in unspecified order.
    */
  def provenance(v: Long): Seq[ProvEntry]

  /** All vertices with a non-empty buffer. */
  def vertices: Iterator[Long]

  /** Analytic memory meter (see [[MemoryModel]]). */
  def memory: MemoryModel

  /** Adds every entry of every non-empty buffer to `rows`: vertices in
    * ascending order, each vertex's entries in [[provenance]] order. This
    * default sorts [[vertices]] and reads [[provenance]]; engines override
    * it with a direct walk over their state.
    */
  protected def addEntries(rows: SnapshotRows): Unit = {
    val vs = vertices.toArray
    java.util.Arrays.sort(vs)
    vs.foreach { v => rows.vertex(v); provenance(v).foreach(rows += _) }
  }

  /** Full decomposition of every non-empty buffer, for result export:
    * `(vertex, entry)` rows in ascending vertex order, each vertex's
    * entries in [[provenance]] order.
    */
  final def snapshot(): Vector[(Long, ProvEntry)] = {
    val rows = new SnapshotRows
    addEntries(rows)
    rows.result()
  }
}

/** The rows of a [[ProvenanceEngine.snapshot]] being built: [[vertex]]
  * starts a vertex, `+=` adds one of its entries. The vertex id is boxed
  * once per vertex, not once per row.
  */
final class SnapshotRows private[core] () {
  private val b = new VectorBuilder[(Long, ProvEntry)]
  private var v: Any = null

  def vertex(id: Long): Unit = v = id

  def +=(e: ProvEntry): Unit = b += Tuple2(v, e).asInstanceOf[(Long, ProvEntry)]

  private[core] def result(): Vector[(Long, ProvEntry)] = b.result()
}

object ProvenanceEngine {
  /** Quantities below this are treated as zero: the proportional policy
    * produces exact-real splits the paper computes in doubles too, and
    * repeated scaling can leave ~1e-16 residues in buffers.
    */
  val Eps: Double = 1e-9
}
