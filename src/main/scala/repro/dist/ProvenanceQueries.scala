package repro.dist

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Provenance analytics over the `(vertex, origin, quantity)` output of
  * [[DistributedProvenance]] — the queries behind the paper's analysis
  * examples (the Fig. 2 pie charts, the Fig. 9 alerts). All are plain
  * Spark SQL so the DuckDB oracle can verify them row-for-row.
  */
object ProvenanceQueries {

  /** Total quantity each origin contributed across all buffers — "who
    * financed the network". Output: origin, total.
    */
  def totalsByOrigin(prov: DataFrame): DataFrame =
    prov.groupBy("origin").agg(round(sum("quantity"), 6).as("total"))

  /** Per-vertex provenance distribution (the Fig. 2 pie chart data):
    * origin share of the vertex's buffer. Output: vertex, origin, share.
    */
  def originShares(prov: DataFrame): DataFrame = {
    val tot = sum("q").over(Window.partitionBy("vertex"))
    prov
      .groupBy("vertex", "origin")
      .agg(sum("quantity").as("q"))
      .select(col("vertex"), col("origin"), round(col("q") / tot, 6).as("share"))
  }

  /** Top-k contributing origins per vertex (ties broken by origin id).
    * Output: vertex, origin, total, rank.
    */
  def topContributors(prov: DataFrame, k: Int): DataFrame = {
    val agg = prov.groupBy("vertex", "origin").agg(round(sum("quantity"), 6).as("total"))
    val w = Window.partitionBy("vertex").orderBy(col("total").desc, col("origin"))
    agg.withColumn("rank", row_number().over(w)).where(col("rank") <= k)
  }

  /** Number of distinct contributing origins per vertex — few-vs-many
    * source characterisation. Output: vertex, norigins.
    */
  def originCounts(prov: DataFrame): DataFrame =
    prov
      .groupBy("vertex")
      .agg(countDistinct("origin").as("norigins"))

  /** §7.6 alert query, as a relational batch query: vertices whose buffer
    * exceeds `threshold` and holds *no* quantity originating from a
    * direct in-neighbour (edges: src→dst). Output: vertex, total.
    */
  def alerts(prov: DataFrame, edges: DataFrame, threshold: Double): DataFrame = {
    val totals = prov
      .groupBy("vertex")
      .agg(round(sum("quantity"), 6).as("total"))
      .where(col("total") > threshold)
    val neighbourContrib = prov
      .join(
        edges.select(col("src").as("origin"), col("dst").as("vertex")).distinct(),
        Seq("vertex", "origin"),
      )
      .where(col("origin") =!= col("vertex"))
      .select("vertex")
      .distinct()
    totals.join(neighbourContrib, Seq("vertex"), "left_anti")
  }
}
