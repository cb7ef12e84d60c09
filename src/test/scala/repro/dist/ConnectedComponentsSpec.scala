package repro.dist

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.SparkSpec
import scala.collection.mutable

/** Two-phase union-find weakly-connected components vs a local
  * union-find reference.
  */
class ConnectedComponentsSpec extends SparkSpec {

  private def edgesDf(pairs: Seq[(Long, Long)],
                      slices: Int = spark.sparkContext.defaultParallelism) = {
    val schema = StructType(Seq(StructField("src", LongType), StructField("dst", LongType)))
    spark.createDataFrame(
      spark.sparkContext.parallelize(pairs.map { case (s, d) => Row(s, d) }, slices),
      schema,
    )
  }

  /** Min-label union-find reference. */
  private def reference(pairs: Seq[(Long, Long)]): Map[Long, Long] = {
    val parent = mutable.Map.empty[Long, Long]
    def find(x: Long): Long = {
      val p = parent.getOrElseUpdate(x, x)
      if (p == x) x else { val r = find(p); parent(x) = r; r }
    }
    def union(a: Long, b: Long): Unit = {
      val (ra, rb) = (find(a), find(b))
      if (ra != rb) { if (ra < rb) parent(rb) = ra else parent(ra) = rb }
    }
    pairs.foreach { case (s, d) => union(s, d) }
    parent.keys.map(v => v -> find(v)).toMap
  }

  private def labels(pairs: Seq[(Long, Long)],
                     slices: Int = spark.sparkContext.defaultParallelism): Map[Long, Long] =
    ConnectedComponents
      .weakly(spark, edgesDf(pairs, slices))
      .collect()
      .map(r => r.getLong(0) -> r.getLong(1))
      .toMap

  private def check(pairs: Seq[(Long, Long)]): Unit =
    assert(labels(pairs) === reference(pairs))

  test("single edge") { check(Seq((1L, 2L))) }

  test("two disjoint edges") { check(Seq((1L, 2L), (10L, 11L))) }

  test("chain collapses to the minimum label") {
    check((0L until 15L).map(i => (i, i + 1)))
  }

  test("direction is ignored (weak connectivity)") {
    check(Seq((5L, 1L), (1L, 9L), (9L, 5L)))
  }

  test("star graph") { check((1L to 10L).map(i => (0L, i))) }

  test("two stars bridged") {
    check((1L to 5L).map(i => (0L, i)) ++ (11L to 15L).map(i => (10L, i)) :+ (5L, 15L))
  }

  test("self-loop vertex forms its own component") {
    check(Seq((3L, 3L), (1L, 2L)))
  }

  test("random sparse graphs match union-find") {
    (1 to 5).foreach { seed =>
      val rnd = new java.util.Random(seed)
      val pairs = Seq.fill(60)((rnd.nextInt(40).toLong, rnd.nextInt(40).toLong))
      check(pairs)
    }
  }

  test("component labels are component minima") {
    val got = ConnectedComponents
      .weakly(spark, edgesDf(Seq((7L, 9L), (9L, 3L))))
      .collect()
      .map(r => r.getLong(0) -> r.getLong(1))
      .toMap
    assert(got === Map(3L -> 3L, 7L -> 3L, 9L -> 3L))
  }

  test("generator components are preserved or refined") {
    import repro.tin.TinGen
    val df = TinGen.generate(spark, TinGen.taxis.scaled(0.05), nComponents = 3)
    val cc = ConnectedComponents.weakly(spark, df.select("src", "dst"))
    // every CC-discovered component must sit inside one generator component
    val vPer = TinGen.taxis.scaled(0.05).vertices / 3
    val rows = cc.collect()
    rows.groupBy(_.getLong(1)).foreach { case (_, vs) =>
      val gens = vs.map(_.getLong(0) / vPer).toSet
      assert(gens.size === 1, s"CC component spans generator components $gens")
    }
  }

  test("a 600-vertex path is one component labelled with its minimum id") {
    val path = (0L until 599L).map(i => (i, i + 1))
    assert(labels(path) === (0L to 599L).map(_ -> 0L).toMap)
  }

  test("a path fed in reverse id order is one component labelled with its minimum id") {
    val path = (599L until 0L by -1L).map(i => (i, i - 1))
    assert(labels(path) === (0L to 599L).map(_ -> 0L).toMap)
  }

  test("labels do not depend on how the edges fall into partitions") {
    (1 to 5).foreach { seed =>
      val rnd = new java.util.Random(seed)
      // ids beyond the Int range; duplicate edges and self-loops included
      def id() = rnd.nextInt(60) * 4294967311L
      val base = Seq.fill(80)((id(), id()))
      val loops = Seq.fill(8) { val v = id(); (v, v) }
      val pairs = new scala.util.Random(seed).shuffle(base ++ base.take(25) ++ loops)
      Seq(1, 3, 8).foreach { slices =>
        assert(edgesDf(pairs, slices).rdd.getNumPartitions === slices)
        assert(labels(pairs, slices) === reference(pairs), s"seed $seed, $slices partitions")
      }
    }
  }
}
