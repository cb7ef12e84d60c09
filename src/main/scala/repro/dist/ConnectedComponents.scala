package repro.dist

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Weakly-connected components over an interaction edge list, computed
  * with iterative DataFrame min-label propagation (the "iterative message
  * passing" substrate of the distributed layer — see DESIGN.md §3).
  *
  * Every vertex starts labelled with its own id; each round every vertex
  * takes the minimum label among itself and its (undirected) neighbours,
  * until a fixpoint. Converges in O(component diameter) rounds; lineage
  * is cut with `localCheckpoint` each round so plans stay flat.
  */
object ConnectedComponents {
  private final val MaxIters = 100 // a run that reaches it fails the `require`

  /** @param edges DataFrame with `src`/`dst` columns
    * @return DataFrame `(vertex, component)` — component = min vertex id
    *         of the weakly-connected component
    */
  def weakly(spark: SparkSession, edges: DataFrame): DataFrame = {
    val sym = edges
      .select(col("src").as("u"), col("dst").as("v"))
      .union(edges.select(col("dst").as("u"), col("src").as("v")))
      .distinct()
      .localCheckpoint()

    var labels = sym
      .select(col("u").as("vertex"))
      .distinct()
      .withColumn("component", col("vertex"))
      .localCheckpoint()

    var iter = 0
    var converged = false
    while (!converged && iter < MaxIters) {
      // message passing: every vertex receives its neighbours' labels …
      val msgs = sym
        .join(labels, sym("u") === labels("vertex"))
        .select(col("v").as("vertex"), col("component"))
      // … and keeps the minimum of its own and the received labels.
      val next = labels
        .union(msgs)
        .groupBy("vertex")
        .agg(min("component").as("component"))
        .localCheckpoint()
      val changed = next
        .join(labels.withColumnRenamed("component", "old"), "vertex")
        .where(col("component") < col("old"))
        .limit(1)
        .count()
      labels = next
      converged = changed == 0
      iter += 1
    }
    require(converged, s"label propagation did not converge in $MaxIters rounds")
    labels
  }
}
