package repro.dist

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core._

/** Structured-Streaming incremental provenance (DESIGN.md §3).
  *
  * Interactions arrive as a time-ordered stream; state is kept per
  * weakly-connected component with `flatMapGroupsWithState`. Each
  * micro-batch replays its new interactions through the exact sequential
  * engine, restored from / persisted to the group state, and emits the
  * current buffer decomposition tagged with the batch sequence number
  * (so a sink query can select the latest snapshot).
  *
  * Supported policies: FIFO / LIFO (their buffer state — per-vertex
  * (origin, quantity) queues — round-trips losslessly through
  * [[OrderedEngine.exportQueues]]).
  */
object StreamingProvenance {

  /** Serialized engine state of one component. `buffers` holds each
    * vertex's queue in order; `batches` counts processed micro-batches.
    */
  final case class ComponentState(
      buffers: Map[Long, Vector[(Long, Double)]],
      batches: Int,
  )

  /** [[ProvRow]] plus the micro-batch sequence that emitted it. */
  final case class StreamedProvRow(batch: Int, vertex: Long, origin: Long,
                                   quantity: Double)

  /** Wire a streaming Dataset of tagged interactions into per-component
    * incremental provenance under `policy` (FIFO or LIFO).
    */
  def apply(spark: SparkSession, interactions: Dataset[TaggedInteraction],
            policy: Policy): Dataset[StreamedProvRow] = {
    require(policy == Policy.Fifo || policy == Policy.Lifo,
            "streaming supports the receipt-order policies")
    import spark.implicits._
    interactions
      .groupByKey(_.component)
      .flatMapGroupsWithState(OutputMode.Update(), GroupStateTimeout.NoTimeout)(
        update(policy)
      )
  }

  private def update(policy: Policy)(
      component: Long,
      rows: Iterator[TaggedInteraction],
      state: GroupState[ComponentState],
  ): Iterator[StreamedProvRow] = {
    val prev = state.getOption.getOrElse(ComponentState(Map.empty, 0))
    val carried = prev.buffers.keys ++ prev.buffers.valuesIterator.flatMap(_.map(_._1))
    val in = ComponentInput(rows, carried)
    def recode(buffers: Map[Long, Vector[(Long, Double)]], f: Long => Long) =
      buffers.map { case (v, q) => f(v) -> q.map { case (o, x) => (f(o), x) } }
    val eng = new OrderedEngine(policy).importQueues(recode(prev.buffers, in.encode))
    in.interactions.foreach(eng.process)
    val batch = prev.batches + 1
    state.update(ComponentState(recode(eng.exportQueues, in.decode), batch))
    eng.snapshot().iterator.map { case (v, e) =>
      StreamedProvRow(batch, in.decode(v), in.decode(e.origin), e.quantity)
    }
  }
}
