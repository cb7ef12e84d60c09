package tinbench

import java.nio.file.Paths
import org.apache.spark.sql.Row
import repro.core._
import repro.dist.ProvenanceQueries
import scala.collection.mutable

/** The benchmark's own tests: every output check accepts the program's
  * real output and rejects a deliberately corrupted copy of it. The
  * corruption is a wrapper made here, not a fault of the program.
  *
  * {{{ python3 tinbench/run.py --selftest }}}
  */
object SelfTest {

  /** An engine whose reported provenance passes through `corrupt`. */
  final class Corrupted(inner: ProvenanceEngine, corrupt: Seq[ProvEntry] => Seq[ProvEntry])
      extends ProvenanceEngine {
    private var done = false
    def process(r: Interaction): Unit = inner.process(r)
    def bufferTotal(v: Long): Double = inner.bufferTotal(v)
    def vertices: Iterator[Long] = inner.vertices
    def memory: MemoryModel = inner.memory
    /** Corrupts the first vertex whose provenance `corrupt` changes. */
    def provenance(v: Long): Seq[ProvEntry] = {
      val p = inner.provenance(v)
      if (done) p
      else { val c = corrupt(p); if (c != p) done = true; c }
    }
  }

  /** Drop the last entry of a vertex: Σ provenance ≠ |B_v|. */
  val dropEntry: Seq[ProvEntry] => Seq[ProvEntry] = p => if (p.nonEmpty) p.init else p

  /** Move the first entry to the second entry's origin: per-vertex sums
    * hold, per-origin sums do not.
    */
  val relabel: Seq[ProvEntry] => Seq[ProvEntry] = p =>
    p.find(_.origin != p.head.origin).fold(p)(other => p.head.copy(origin = other.origin) +: p.tail)

  /** Report the α mass of a vertex as coming from `origin`, a vertex
    * that generated nothing.
    */
  def alphaTo(origin: Long): Seq[ProvEntry] => Seq[ProvEntry] = p =>
    if (p.exists(e => e.origin == -1L && e.quantity > 1.0))
      p.map(e => if (e.origin == -1L) e.copy(origin = origin) else e)
    else p

  private val failures = mutable.ArrayBuffer.empty[String]

  private def expect(name: String, ok: Boolean, result: Option[String]): Unit = {
    val pass = result.isEmpty == ok
    println(s"${if (pass) "ok  " else "FAIL"} $name${result.fold("")(r => s" ($r)")}")
    if (!pass) failures += name
  }

  def main(args: Array[String]): Unit = {
    val rs = Streams.build(Streams.flights.copy(interactions = 3000), seed = 7L)
    val ref = new Reference(rs)
    val tracked = ref.topGenerators(5)
    val idle = Streams.flights.vertices.toLong // outside the vertex range
    val engines: Seq[(String, () => ProvenanceEngine, Expect, Seq[ProvEntry] => Seq[ProvEntry])] = Seq(
      ("noprov", () => new NoProv(), Expect.PerLabel(_ => -1L), dropEntry),
      ("fifo", () => new OrderedEngine(Policy.Fifo, consolidate = true), Expect.Exact, relabel),
      ("lrb", () => new OrderedEngine(Policy.LeastRecentlyBorn), Expect.Exact, relabel),
      ("dense", () => new ProportionalDense(Streams.flights.vertices), Expect.Exact, relabel),
      ("sparse", () => new ProportionalSparse(), Expect.Exact, dropEntry),
      ("selective", () => new SelectiveProvenance(tracked),
       Expect.PerLabel(o => if (tracked.contains(o)) o else -1L), relabel),
      ("grouped", () => new GroupedProvenance(4, o => (o % 4).toInt), Expect.PerLabel(_ % 4), relabel),
      ("budget", () => new BudgetProvenance(5, 0.6), Expect.AlphaFolded, alphaTo(idle)),
      ("windowed", () => new WindowedProvenance(500), Expect.AlphaFolded, alphaTo(idle)),
    )
    engines.foreach { case (name, make, exp, corrupt) =>
      expect(s"$name output passes", ok = true,
             Checks.snapshot(make().processAll(rs).snapshot(), ref, exp))
      expect(s"$name corrupted output is rejected", ok = false,
             Checks.snapshot(new Corrupted(make(), corrupt).processAll(rs).snapshot(), ref, exp))
    }

    val dense = Checks.byPair(new ProportionalDense(Streams.flights.vertices).processAll(rs).snapshot())
    val sparse = Checks.byPair(new ProportionalSparse().processAll(rs).snapshot())
    expect("dense = sparse", ok = true, Checks.samePairs(dense, sparse))
    val (k, q) = sparse.head
    expect("dense = corrupted sparse is rejected", ok = false,
           Checks.samePairs(dense, sparse.updated(k, q + 1.0)))

    expect("time order passes", ok = true, Checks.timeOrdered(rs, rs.length))
    val swapped = rs.clone(); swapped(5) = rs(6); swapped(6) = rs(5)
    expect("swapped interactions are rejected", ok = false, Checks.timeOrdered(swapped, rs.length))

    val uf = Checks.components(rs)
    val byRoot = rs.iterator.map(r => r.id -> uf(r.s)).toMap
    val byOther = byRoot.map { case (i, l) => i -> (l * 7 + 3) } // same classes, other labels
    expect("label partition passes", ok = true, Checks.samePartition(byOther, byRoot))
    val split = byOther.map { case (i, l) => i -> (if (i % 2 == 0) l else -l - 1) }
    expect("split partition is rejected", ok = false, Checks.samePartition(split, byRoot))
    expect("refinement passes", ok = true, Checks.refines(split, byRoot))
    expect("coarser partition is rejected", ok = false, Checks.refines(byRoot, split))

    expect("origin totals pass", ok = true, Checks.sameSums("origin", ref.generated, ref.generated))
    val (o, g) = ref.generated.head
    expect("changed origin total is rejected", ok = false,
           Checks.sameSums("origin", ref.generated.clone().addOne(o -> (g + 1.0)), ref.generated))

    oracleChecks(rs, Paths.get(args.headOption.getOrElse("tinbench/out/work")))
    if (failures.nonEmpty) {
      println(s"${failures.size} self-test(s) failed")
      sys.exit(1)
    }
    println("all self-tests passed")
  }

  /** Each query's DuckDB comparison accepts the real result and rejects
    * one with a changed value.
    */
  private def oracleChecks(rs: Array[Interaction], work: java.nio.file.Path): Unit = {
    val spark = SparkWorkloads.session(work)
    try {
      import spark.implicits._
      val prov = new OrderedEngine(Policy.Fifo).processAll(rs).snapshot()
        .map { case (v, e) => (v, e.origin, e.quantity) }.toDF("vertex", "origin", "quantity")
      val edges = rs.toSeq.map(r => (r.s, r.d)).toDF("src", "dst")
      SparkWorkloads.queries.foreach { q =>
        val df = q.run(prov, edges)
        val rows = df.collect()
        val tables = Seq("prov" -> prov, "edges" -> edges)
        expect(s"query ${q.name} passes", ok = true, SparkWorkloads.oracle(spark, rows.toSeq, df, q.sql, tables: _*))
        val bad = rows.head.toSeq.toArray
        val col = df.schema.fieldNames.indexWhere(n => n != "vertex" && n != "origin")
        bad(col) = bad(col) match {
          case d: Double => d + 1.0
          case l: Long   => l + 1L
          case i: Int    => i + 1
          case x         => x
        }
        expect(s"query ${q.name} changed result is rejected", ok = false,
               SparkWorkloads.oracle(spark, Row.fromSeq(bad.toSeq) +: rows.tail.toSeq, df, q.sql, tables: _*))
      }
      val results = ProvenanceQueries.totalsByOrigin(prov).collect()
      expect("totalsByOrigin equals the reference", ok = true,
             Checks.sameSums("origin", results.map(r => r.getLong(0) -> r.getDouble(1)).toMap,
                             new Reference(rs).generated))
    } finally spark.stop()
  }
}
