package repro.tin

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.dist.TaggedInteraction

/** Synthetic TIN generators — schema, determinism, Table 6 shape,
  * DuckDB-oracled statistics, and one row definition behind the Spark
  * frame and the local stream.
  */
class TinGenSpec extends SparkSpec {

  private lazy val tiny = TinGen.taxis.scaled(0.05) // 12 vertices, 1155 interactions

  test("schema has the interaction columns") {
    val df = TinGen.generate(spark, tiny)
    assert(df.columns.toSet === Set("id", "ts", "src", "dst", "qty", "component"))
  }

  test("row count matches the profile") {
    val df = TinGen.generate(spark, tiny)
    assert(df.count() === tiny.interactions)
  }

  test("generation is deterministic in the seed") {
    val a = TinGen.generate(spark, tiny, seed = 7L).collect().map(_.toString).sorted
    val b = TinGen.generate(spark, tiny, seed = 7L).collect().map(_.toString).sorted
    val c = TinGen.generate(spark, tiny, seed = 8L).collect().map(_.toString).sorted
    assert(a.sameElements(b))
    assert(!a.sameElements(c))
  }

  test("no self-loops") {
    val df = TinGen.generate(spark, tiny)
    assert(df.where(col("src") === col("dst")).count() === 0)
  }

  test("vertex ids stay inside the profile range") {
    val df = TinGen.generate(spark, tiny)
    val mx = df.agg(greatest(max("src"), max("dst"))).head.getLong(0)
    val mn = df.agg(least(min("src"), min("dst"))).head.getLong(0)
    assert(mn >= 0 && mx < tiny.vertices)
  }

  test("quantities are positive") {
    val df = TinGen.generate(spark, tiny)
    assert(df.where(col("qty") <= 0).count() === 0)
  }

  test("timestamps are strictly increasing with id") {
    val df = TinGen.generate(spark, tiny)
    assert(df.where(col("ts") =!= col("id")).count() === 0)
  }

  test("components partition both interactions and vertex ranges") {
    val df = TinGen.generate(spark, TinGen.prosper.scaled(0.02), nComponents = 4)
    val perComp = df
      .groupBy("component")
      .agg(min("src").as("minS"), max("src").as("maxS"),
           min("dst").as("minD"), max("dst").as("maxD"),
           count(lit(1)).as("n"))
      .collect()
    assert(perComp.length === 4)
    val vPer = TinGen.prosper.scaled(0.02).vertices / 4
    perComp.foreach { r =>
      val c = r.getLong(0)
      val lo = c * vPer; val hi = lo + vPer
      assert(r.getLong(1) >= lo && r.getLong(2) < hi, s"component $c src range")
      assert(r.getLong(3) >= lo && r.getLong(4) < hi, s"component $c dst range")
      assert(r.getLong(5) > 0)
    }
  }

  test("zipf endpoints are skewed: hottest vertex well above uniform share") {
    val p = TinGen.bitcoin.scaled(0.01) // 1200 vertices, 4550 interactions
    val df = TinGen.generate(spark, p)
    val top = df.groupBy("src").count().orderBy(desc("count")).head.getLong(1)
    val uniformShare = p.interactions.toDouble / p.vertices
    assert(top > 10 * uniformShare, s"top=$top uniform=$uniformShare")
  }

  test("exponential quantities hit the profile mean (±15%)") {
    val p = TinGen.prosper.scaled(0.05)
    val mean = TinGen.generate(spark, p).agg(avg("qty")).head.getDouble(0)
    assert(math.abs(mean - 76.0) / 76.0 < 0.15, s"avg=$mean")
  }

  test("uniform quantities stay in [50, 200] with mean ≈ 125") {
    val p = TinGen.flights.scaled(0.05)
    val row = TinGen.generate(spark, p)
      .agg(min("qty").as("mn"), max("qty").as("mx"), avg("qty").as("av")).head
    assert(row.getDouble(0) >= 50.0 && row.getDouble(1) <= 200.0)
    assert(math.abs(row.getDouble(2) - 125.0) < 10.0)
  }

  test("passenger quantities are integers 1..6 with mean ≈ 1.53") {
    val p = TinGen.taxis.scaled(0.2)
    val df = TinGen.generate(spark, p)
    val distinct = df.select("qty").distinct().collect().map(_.getDouble(0)).toSet
    assert(distinct.subsetOf(Set(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)))
    val avg0 = df.agg(avg("qty")).head.getDouble(0)
    assert(avg0 > 1.3 && avg0 < 1.8, s"avg=$avg0")
  }

  test("profiles keep the paper's V:R ratios (Table 6 shape)") {
    // bitcoin 12M/45.5M ≈ 0.264; ours 120K/455K identical ratio, etc.
    def ratio(p: TinGen.Profile) = p.vertices.toDouble / p.interactions
    assert(math.abs(ratio(TinGen.bitcoin) - 12.0 / 45.5) < 0.01)
    assert(math.abs(ratio(TinGen.ctu) - 608.0 / 2800.0) < 0.01)
    assert(math.abs(ratio(TinGen.prosper) - 100.0 / 3080.0) < 0.005)
    assert(TinGen.flights.vertices === 629)
    assert(TinGen.taxis.vertices === 255)
  }

  test("byName resolves every profile") {
    TinGen.all.foreach(p => assert(TinGen.byName(p.name) eq p))
    intercept[RuntimeException] { TinGen.byName("nope") }
  }

  test("toInteractions returns a time-ordered stream") {
    val rs = TinGen.toInteractions(TinGen.generate(spark, tiny))
    assert(rs.length === tiny.interactions)
    rs.sliding(2).foreach {
      case Array(a, b) => assert(a.t < b.t || (a.t == b.t && a.id < b.id))
      case _           =>
    }
  }

  test("oracle: per-profile statistics agree with DuckDB") {
    val df = TinGen.generate(spark, tiny).cache()
    val stats = df.agg(
      count(lit(1)).as("n"),
      round(sum("qty"), 4).as("total"),
      countDistinct("src").as("nsrc"),
    )
    Oracle.assertEquivalent(
      stats,
      "SELECT count(*) AS n, round(sum(CAST(qty AS DOUBLE)), 4) AS total, " +
        "count(DISTINCT src) AS nsrc FROM tin",
      "tin" -> df,
    )
  }

  test("oracle: component histogram agrees with DuckDB") {
    val df = TinGen.generate(spark, tiny, nComponents = 3).cache()
    val hist = df.groupBy("component").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(
      hist,
      "SELECT component, count(*) AS n FROM tin GROUP BY component",
      "tin" -> df,
    )
  }

  /** `df` collected under `spark.sql.leafNodeDefaultParallelism = n`,
    * with the number of partitions it was generated in.
    */
  private def underParallelism(n: Int)(df: => DataFrame) = {
    val key = "spark.sql.leafNodeDefaultParallelism"
    spark.conf.set(key, n.toLong)
    try {
      val d = df
      (d.rdd.getNumPartitions, d.orderBy("id").collect().toSeq)
    } finally spark.conf.unset(key)
  }

  test("the Spark frame equals the local stream for every quantity distribution") {
    Seq(
      TinGen.prosper.scaled(0.005),                            // Exponential
      TinGen.taxis.scaled(0.05).copy(qty = TinGen.Uniform(0.5, 3.0)), // Uniform
      TinGen.flights.scaled(0.001),                            // UniformInt
      TinGen.taxis.scaled(0.05),                               // Passengers
    ).foreach { p =>
      val frame = TinGen.toInteractions(TinGen.generate(spark, p, seed = 5L))
      assert(frame.toSeq === TinGen.local(p, seed = 5L).toSeq, s"${p.name} ${p.qty}")
    }
  }

  test("the frame does not depend on how many partitions generate it") {
    val p = TinGen.bitcoin.scaled(0.005)
    val (n1, one) = underParallelism(1)(TinGen.generate(spark, p, nComponents = 3, seed = 9L))
    val (n7, seven) = underParallelism(7)(TinGen.generate(spark, p, nComponents = 3, seed = 9L))
    assert(n1 === 1 && n7 === 7)
    assert(one.length === p.interactions)
    assert(one === seven)
  }

  test("every row of a multi-component frame is TinGen.row of its id") {
    import spark.implicits._
    val p = TinGen.prosper.scaled(0.005)
    val rows = TinGen.generate(spark, p, nComponents = 3, seed = 11L)
      .as[TaggedInteraction].collect().sortBy(_.id).toSeq
    assert(rows === (0L until p.interactions).map(TinGen.row(p, 3, 11L, _)))
  }
}
