package repro.dist

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core._
import repro.tin.TinGen

/** Component-parallel provenance must reproduce the sequential engines
  * exactly; output analytics are DuckDB-oracled.
  */
class DistributedProvenanceSpec extends SparkSpec {

  private lazy val profile = TinGen.prosper.scaled(0.01) // 100 vertices, 3080 interactions
  private lazy val tin4 = TinGen.generate(spark, profile, nComponents = 4).cache()
  private lazy val interactions = TinGen.toInteractions(tin4)

  private def sequentialTotals(policy: Policy): Map[(Long, Long), Double] = {
    val e = new OrderedEngine(policy)
    e.processAll(interactions)
    TestTins.originTotals(e)
  }

  Policy.ordered.foreach { policy =>
    test(s"distributed ${policy.label} equals the sequential engine") {
      val rows = DistributedProvenance
        .run(spark, tin4, () => new OrderedEngine(policy))
        .collect()
      val got = rows
        .groupBy(r => (r.vertex, r.origin))
        .view
        .mapValues(_.map(_.quantity).sum)
        .toMap
      TestTins.assertMapsEqual(got, sequentialTotals(policy), tol = 1e-6,
                               hint = policy.label)
    }
  }

  test("distributed sparse proportional equals the sequential engine") {
    val rows = DistributedProvenance
      .run(spark, tin4, () => new ProportionalSparse())
      .collect()
    val got = rows.groupBy(r => (r.vertex, r.origin)).view
      .mapValues(_.map(_.quantity).sum).toMap
    val seq = { val e = new ProportionalSparse(); e.processAll(interactions); TestTins.originTotals(e) }
    TestTins.assertMapsEqual(got, seq, tol = 1e-5)
  }

  test("tag() computes components when the column is missing") {
    val untagged = tin4.drop("component")
    val tagged = DistributedProvenance.tag(spark, untagged)
    // union-find components must refine the generator's ranges
    val vPer = profile.vertices / 4
    tagged.collect().foreach { r =>
      assert(r.src / vPer === r.dst / vPer, s"edge crosses generator components: $r")
    }
    assert(tagged.count() === profile.interactions)
  }

  test("run() over CC-derived components equals the sequential engine") {
    val rows = DistributedProvenance
      .run(spark, tin4.drop("component"), () => new OrderedEngine(Policy.Fifo))
      .collect()
    val got = rows.groupBy(r => (r.vertex, r.origin)).view
      .mapValues(_.map(_.quantity).sum).toMap
    TestTins.assertMapsEqual(got, sequentialTotals(Policy.Fifo), tol = 1e-6)
  }

  test("per-vertex totals equal NoProv buffers") {
    val rows = DistributedProvenance
      .run(spark, tin4, () => new OrderedEngine(Policy.Lifo))
      .collect()
    val got = rows.groupBy(_.vertex).view.mapValues(_.map(_.quantity).sum).toMap
    val noProv = new NoProv(); noProv.processAll(interactions)
    noProv.vertices.foreach { v =>
      assert(math.abs(got.getOrElse(v, 0.0) - noProv.bufferTotal(v)) < 1e-6, s"v$v")
    }
  }

  test("originSummary aggregates duplicate (vertex, origin) rows") {
    val ds = DistributedProvenance.run(spark, tin4, () => new OrderedEngine(Policy.Lifo))
    val summary = DistributedProvenance.originSummary(ds)
    assert(summary.groupBy("vertex", "origin").count().where(col("count") > 1).count() === 0)
    val total = summary.agg(sum("quantity")).head.getDouble(0)
    val noProv = new NoProv(); noProv.processAll(interactions)
    val expTotal = noProv.vertices.map(noProv.bufferTotal).sum
    assert(math.abs(total - expTotal) < 1e-4)
  }

  test("oracle: originSummary equals DuckDB aggregation of raw rows") {
    // Quantize to integer micro-units before summing: double sums are
    // order-dependent in the last ulps and `round(…, 4)` can flip at a
    // boundary; integer sums are exact in both engines.
    val ds = DistributedProvenance.run(spark, tin4, () => new OrderedEngine(Policy.Fifo))
    val raw = ds.toDF()
      .select(col("vertex"), col("origin"),
              round(col("quantity") * 1000).cast("long").as("microq"))
      .cache()
    val summary = raw.groupBy("vertex", "origin").agg(sum("microq").as("microq"))
    Oracle.assertEquivalent(
      summary,
      "SELECT vertex, origin, sum(CAST(microq AS BIGINT)) AS microq " +
        "FROM prov GROUP BY vertex, origin",
      "prov" -> raw,
    )
  }

  test("single-component input runs in one group and matches") {
    val small = TinGen.generate(spark, TinGen.taxis.scaled(0.02))
    val rs = TinGen.toInteractions(small)
    val rows = DistributedProvenance
      .run(spark, small, () => new OrderedEngine(Policy.Fifo))
      .collect()
    val got = rows.groupBy(r => (r.vertex, r.origin)).view
      .mapValues(_.map(_.quantity).sum).toMap
    val e = new OrderedEngine(Policy.Fifo); e.processAll(rs)
    TestTins.assertMapsEqual(got, TestTins.originTotals(e), tol = 1e-6)
  }

  test("ids shifted by 2^40 give the unshifted rows, shifted") {
    val shift = 1L << 40
    val shifted = tin4.withColumn("src", col("src") + shift).withColumn("dst", col("dst") + shift)
    def up(id: Long) = if (id == -1L) id else id + shift
    val nv = profile.vertices
    Seq[(String, DistributedProvenance.EngineFactory)](
      "NoProv" -> (() => new NoProv()),
      "LRB" -> (() => new OrderedEngine(Policy.LeastRecentlyBorn)),
      "LIFO" -> (() => new OrderedEngine(Policy.Lifo, consolidate = true)),
      "PropDense" -> (() => new ProportionalDense(nv)),
    ).foreach { case (name, make) =>
      val plain = DistributedProvenance.run(spark, tin4, make).collect()
      val moved = DistributedProvenance.run(spark, shifted, make).collect()
      assert(plain.nonEmpty)
      assert(moved.sortBy(r => (r.vertex, r.origin, r.birth, r.quantity)).toSeq ===
               plain.map(r => r.copy(vertex = up(r.vertex), origin = up(r.origin)))
                 .sortBy(r => (r.vertex, r.origin, r.birth, r.quantity)).toSeq, name)
    }
  }

  test("birth times survive the distributed path for gen-time policies") {
    val rows = DistributedProvenance
      .run(spark, tin4, () => new OrderedEngine(Policy.LeastRecentlyBorn))
      .collect()
    assert(rows.nonEmpty)
    assert(rows.forall(_.birth >= 0L))
    val lifoRows = DistributedProvenance
      .run(spark, tin4, () => new OrderedEngine(Policy.Lifo))
      .collect()
    assert(lifoRows.forall(_.birth === -1L))
  }
}
