package repro.dist

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._

/** One interaction tagged with its component: a weakly-connected one, or
  * the generator's sub-network (a row of [[repro.tin.TinGen.generate]]).
  */
final case class TaggedInteraction(id: Long, ts: Long, src: Long, dst: Long,
                                   qty: Double, component: Long)

/** One provenance output row: `origin` contributed `quantity` of the
  * units buffered at `vertex` (birth = generation time where tracked,
  * −1 otherwise).
  */
final case class ProvRow(vertex: Long, origin: Long, quantity: Double, birth: Long)

/** Component-parallel provenance tracking (DESIGN.md §3).
  *
  * The paper's engines are inherently sequential, but interactions in
  * different weakly-connected components touch disjoint buffers and
  * commute, so the component is the sound unit of distribution: tag each
  * interaction with its component (either the generator-provided column
  * or [[ConnectedComponents.weakly]]), then run the exact sequential
  * engine once per component inside `flatMapGroups` on the executors.
  */
object DistributedProvenance {

  /** Engine factory — must be serializable so executors can instantiate
    * engines; all policy configuration is baked into the closure. Its
    * engines see a component's dense vertex ids `0 … n−1`, so a slot map
    * keyed on the input's vertex ids does not fit here.
    */
  type EngineFactory = () => ProvenanceEngine

  /** Tag interactions with their component by union-find ([[ConnectedComponents.weakly]]),
    * unless the frame already carries a `component` column.
    */
  def tag(spark: SparkSession, interactions: DataFrame): Dataset[TaggedInteraction] = {
    import spark.implicits._
    val tagged =
      if (interactions.columns.contains("component")) interactions
      else {
        val cc = ConnectedComponents.weakly(spark, interactions.select("src", "dst"))
        interactions.join(cc, interactions("src") === cc("vertex")).drop("vertex")
      }
    tagged.select("id", "ts", "src", "dst", "qty", "component").as[TaggedInteraction]
  }

  /** Run `makeEngine` per component and emit the final buffer
    * decompositions as a Dataset of [[ProvRow]]. Each engine replays its
    * component over dense vertex ids ([[ComponentInput]]); its rows are
    * decoded back to the input's ids.
    */
  def run(spark: SparkSession, interactions: DataFrame,
          makeEngine: EngineFactory): Dataset[ProvRow] = {
    import spark.implicits._
    tag(spark, interactions)
      .groupByKey(_.component)
      .flatMapGroups { (_, it) =>
        val in = ComponentInput(it)
        val eng = makeEngine()
        in.interactions.foreach(eng.process)
        eng.snapshot().iterator.map { case (v, e) =>
          ProvRow(in.decode(v), in.decode(e.origin), e.quantity, e.birth)
        }
      }
  }

  /** Provenance rows aggregated per (vertex, origin) — the O(t, B_v) sets
    * of Definition 2, independent of buffer-internal element order.
    */
  def originSummary(rows: Dataset[ProvRow]): DataFrame =
    rows
      .toDF()
      .groupBy("vertex", "origin")
      .agg(sum("quantity").as("quantity"))
}
