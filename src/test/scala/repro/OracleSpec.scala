package repro

import org.apache.spark.sql.functions._
import repro.tin.TinGen

/** The DuckDB oracle's own checks, over a generated TIN frame: it agrees
  * with Spark on a group-by and a join, and rejects a wrong result.
  */
class OracleSpec extends SparkSpec {

  // 50 vertices, 1540 interactions in two components
  private lazy val tin =
    TinGen.generate(spark, TinGen.prosper.scaled(0.005), nComponents = 2).cache()

  test("oracle: group-by aggregate matches DuckDB") {
    // unrounded sums: quantities have 6 decimals, which is where the oracle
    // compares, so a 4-decimal round could flip on a half-way sum
    val q = tin
      .groupBy("src")
      .agg(count(lit(1)).as("n"), sum("qty").as("sumq"))
    Oracle.assertEquivalent(
      q,
      "SELECT src, count(*) AS n, sum(CAST(qty AS DOUBLE)) AS sumq FROM tin GROUP BY src",
      "tin" -> tin,
    )
  }

  test("oracle: join query matches DuckDB") {
    // relay pairs: an interaction into v followed by one out of v
    val in = tin.select(col("dst").as("v"), col("id").as("inId"))
    val out = tin.select(col("src").as("v"), col("id").as("outId"))
    val q = in
      .join(out, "v")
      .where(col("inId") < col("outId"))
      .groupBy("v")
      .agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(
      q,
      "SELECT a.dst AS v, count(*) AS n FROM tin a JOIN tin b ON a.dst = b.src " +
        "WHERE CAST(a.id AS BIGINT) < CAST(b.id AS BIGINT) GROUP BY a.dst",
      "tin" -> tin,
    )
  }

  test("oracle: detects a wrong result") {
    val wrong = tin.agg((count(lit(1)) + 1).as("n")) // off by one on purpose
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, "SELECT count(*) AS n FROM tin", "tin" -> tin)
    }
  }
}
