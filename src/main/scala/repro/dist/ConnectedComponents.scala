package repro.dist

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Weakly-connected components of an interaction edge list by two-phase
  * union-find (partition-local reduction, Kiveris et al., SoCC 2014; see
  * DESIGN.md §3): a fixed number of Spark stages, whatever the diameter.
  *
  * Phase 1 runs a min-id union-find in every partition of the edges and
  * emits `(vertex, localRoot)` per vertex the partition saw, a forest with
  * the edges' connectivity. Phase 2 runs the same union-find over that
  * forest in one task: O(V) ids, at most one pair per edge endpoint, fewer
  * bytes than the interactions of a giant component, which the replay of
  * [[DistributedProvenance.run]] already holds in one task.
  */
object ConnectedComponents {

  /** @param edges DataFrame with `src`/`dst` columns
    * @return DataFrame `(vertex, component)` — component = min vertex id
    *         of the weakly-connected component
    */
  def weakly(spark: SparkSession, edges: DataFrame): DataFrame = {
    import spark.implicits._
    edges
      .select("src", "dst")
      .as[(Long, Long)]
      .mapPartitions(minRoots)
      .repartition(1)
      .mapPartitions(minRoots)
      .toDF("vertex", "component")
  }

  /** `(id, min id of its component)` for every id of `pairs`. Parents are
    * indices into the sorted ids, so union by smaller index is union by
    * min id; `find` halves paths.
    */
  private def minRoots(pairs: Iterator[(Long, Long)]): Iterator[(Long, Long)] = {
    val b = Array.newBuilder[Long]
    pairs.foreach { case (s, d) => b += s; b += d }
    val ends = b.result()
    val ids = ends.clone()
    java.util.Arrays.sort(ids)
    var n = 0
    for (i <- ids.indices) if (n == 0 || ids(i) != ids(n - 1)) { ids(n) = ids(i); n += 1 }
    val parent = Array.range(0, n)
    def find(x: Int): Int = {
      var i = x
      while (parent(i) != i) { parent(i) = parent(parent(i)); i = parent(i) }
      i
    }
    def at(id: Long): Int = find(java.util.Arrays.binarySearch(ids, 0, n, id))
    var k = 0
    while (k < ends.length) {
      val a = at(ends(k)); val c = at(ends(k + 1))
      if (a < c) parent(c) = a else if (c < a) parent(a) = c
      k += 2
    }
    Iterator.range(0, n).map(i => (ids(i), ids(find(i))))
  }
}
