package tinbench

import java.nio.file.{Files, Path}
import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.Oracle
import repro.core._
import repro.dist._
import repro.tin.TinGen
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Engines created by the replay stage's factory, so that their metered
  * peaks can be summed (local mode: executors share this JVM).
  */
object EngineRegistry {
  private val made = new ConcurrentLinkedQueue[ProvenanceEngine]
  val fifo: DistributedProvenance.EngineFactory = () => {
    val e = new OrderedEngine(Policy.Fifo); made.add(e); e
  }
  def clear(): Unit = made.clear()
  def count: Int = made.size
  def peakBytesSum: Long = made.asScala.map(_.memory.peakBytes).sum
}

/** Spark-listener counts per job group: jobs, shuffle bytes written, the
  * longest task and the tasks' CPU time.
  */
final class SparkCounts extends SparkListener {
  final class Group {
    var jobs = 0; var jobsEnded = 0; var shuffleBytes = 0L; var maxTaskMs = 0L; var cpuNs = 0L
  }
  private val groups = new ConcurrentHashMap[String, Group]
  private val jobGroup = new ConcurrentHashMap[Int, String]
  private val stageGroup = new ConcurrentHashMap[Int, String]

  private def group(g: String) = groups.computeIfAbsent(g, _ => new Group)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).foreach { g =>
      jobGroup.put(e.jobId, g)
      e.stageIds.foreach(stageGroup.put(_, g))
      group(g).synchronized(group(g).jobs += 1)
    }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(jobGroup.get(e.jobId)).foreach(g => group(g).synchronized(group(g).jobsEnded += 1))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    for (g <- Option(stageGroup.get(e.stageId)); m <- Option(e.taskMetrics)) {
      val s = group(g)
      s.synchronized {
        s.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
        s.maxTaskMs = math.max(s.maxTaskMs, m.executorRunTime)
        s.cpuNs += m.executorCpuTime
      }
    }

  /** Counts of group `g`, once the listener has seen all its jobs end. */
  def await(spark: SparkSession, g: String): Group = {
    val started = spark.sparkContext.statusTracker.getJobIdsForGroup(g).length
    val deadline = System.nanoTime() + 10_000_000_000L
    while (group(g).synchronized(group(g).jobsEnded) < started && System.nanoTime() < deadline)
      Thread.sleep(5)
    group(g)
  }
}

/** The Spark workloads. Both run a bitcoin-shaped TIN from `TinGen` with
  * several components and integer quantities, so that every sum is exact
  * and the DuckDB comparison at 6 decimals cannot flip on rounding.
  */
object SparkWorkloads {
  val Scale = 0.1
  val Components = 4
  val Threads: Int = math.min(2, Runtime.getRuntime.availableProcessors())
  val ShufflePartitions = 2
  val TopK = 3
  val AlertThreshold = 300.0
  val MicroBatches = 8
  val PipelineWarmUp = 3
  /** Runs of the replay stage per pass after the pipeline's own. */
  val ReplayRepeats = 3

  /** 12 k vertices, 45.5 k interactions, quantities uniform in 1–68. */
  val profile: TinGen.Profile =
    TinGen.bitcoin.scaled(Scale).copy(qty = TinGen.UniformInt(1, 68))

  /** One provenance query: its program call, the DuckDB statement that
    * must give the same rows (tables `prov` and `edges` hold strings), and
    * the column its result rows are keyed by: a result row depends only on
    * the `prov` rows with the same value in that column.
    */
  final case class Query(name: String, run: (DataFrame, DataFrame) => DataFrame,
                                 sql: String, key: String)

  /** The DuckDB comparison runs on the keys `k` with `k % OracleSample == 0`,
    * which keeps its row-by-row JDBC inserts to a few seconds per pass.
    */
  val OracleSample = 64

  val queries: Seq[Query] = Seq(
    Query("totals_by_origin", (p, _) => ProvenanceQueries.totalsByOrigin(p),
     "SELECT origin, round(sum(CAST(quantity AS DOUBLE)), 6) AS total FROM prov GROUP BY origin", "origin"),
    Query("origin_shares", (p, _) => ProvenanceQueries.originShares(p),
     """WITH agg AS (SELECT vertex, origin, sum(CAST(quantity AS DOUBLE)) AS q
       |             FROM prov GROUP BY vertex, origin),
       |     tot AS (SELECT vertex, sum(q) AS t FROM agg GROUP BY vertex)
       |SELECT agg.vertex, agg.origin, round(agg.q / tot.t, 6) AS share
       |FROM agg JOIN tot ON agg.vertex = tot.vertex""".stripMargin, "vertex"),
    Query("top_contributors", (p, _) => ProvenanceQueries.topContributors(p, TopK),
     s"""WITH agg AS (SELECT vertex, origin, round(sum(CAST(quantity AS DOUBLE)), 6) AS total
        |             FROM prov GROUP BY vertex, origin),
        |     ranked AS (SELECT vertex, origin, total, row_number() OVER
        |                  (PARTITION BY vertex ORDER BY total DESC, CAST(origin AS BIGINT)) AS rank
        |                FROM agg)
        |SELECT vertex, origin, total, rank FROM ranked WHERE rank <= $TopK""".stripMargin, "vertex"),
    Query("origin_counts", (p, _) => ProvenanceQueries.originCounts(p),
     "SELECT vertex, count(DISTINCT origin) AS norigins FROM prov GROUP BY vertex", "vertex"),
    Query("alerts", (p, e) => ProvenanceQueries.alerts(p, e, AlertThreshold),
     s"""WITH tot AS (SELECT vertex, round(sum(CAST(quantity AS DOUBLE)), 6) AS total
        |             FROM prov GROUP BY vertex HAVING sum(CAST(quantity AS DOUBLE)) > $AlertThreshold),
        |     nb AS (SELECT DISTINCT p.vertex FROM prov p
        |            JOIN (SELECT DISTINCT src, dst FROM edges) e
        |              ON p.vertex = e.dst AND p.origin = e.src
        |            WHERE p.origin <> p.vertex)
        |SELECT vertex, total FROM tot WHERE vertex NOT IN (SELECT vertex FROM nb)""".stripMargin, "vertex"),
  )

  val queryNames: Seq[String] = queries.map(_.name)

  def session(work: Path): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$Threads]")
      .appName("tinbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.adaptive.enabled", "false")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def pipeline(seed: Long, work: Path, traced: Boolean, tracer: Tracer): Workload =
    new Pipeline(seed, work, traced, tracer)

  def streaming(seed: Long, work: Path, tracer: Tracer): Workload =
    new Streaming(seed, work, tracer)

  /** Per-layer metrics of the streaming workload only. */
  val streamLayers: Seq[(String, String)] = Seq(
    "dist.stream.first_trigger_s" -> "s", "dist.stream.last_trigger_s" -> "s",
    "dist.stream.state_rows" -> "count")

  /** Rows of a collected query result, checked against DuckDB. */
  def oracle(spark: SparkSession, got: Seq[Row], like: DataFrame, sql: String,
             tables: (String, DataFrame)*): Option[String] = {
    val df = spark.createDataFrame(got.asJava, like.schema)
    try { Oracle.assertEquivalent(df, sql, tables: _*); None }
    catch { case e: IllegalArgumentException => Some(e.getMessage.take(300)) }
  }

  private abstract class SparkWorkload(work: Path) extends Workload {
    protected var spark: SparkSession = _
    protected def startSpark(): Unit = spark = session(work)
    override def close(): Unit = if (spark != null) spark.stop()
  }

  /** spark-pipeline: generate → collect → label propagation → FIFO per
    * component → five queries, then `ReplayRepeats` more runs of the
    * replay stage on the same tagged frame, after the timed part. The
    * stage runs about 0.3 s, too short for one reading of its rate to
    * be steady: `replay_int_per_s` is the geometric mean over all its
    * runs in the pass. The pipeline and each extra replay are one
    * operation each.
    */
  private final class Pipeline(seed: Long, work: Path, traced: Boolean, tracer: Tracer)
      extends SparkWorkload(work) {
    private val counts = new SparkCounts
    private var passNo = 0

    def setup(): Unit = {
      startSpark()
      spark.sparkContext.addSparkListener(counts)
      // The replay stage runs 1 + ReplayRepeats times per pass, so the
      // warm-up passes warm it up too (run once per pass, it still ran
      // 25 % slower in some JVMs' timed passes after three).
      warmUp(PipelineWarmUp, checked = false)
    }

    private def replay(tagged: DataFrame): DataFrame =
      DistributedProvenance.run(spark, tagged, EngineRegistry.fifo).toDF().localCheckpoint()

    /** A replay stage's output against the reference: one engine per
      * component, Σ per vertex = |B_v|, Σ per origin = generated.
      */
    private def checkReplay(prov: DataFrame, engines: Int, components: Int,
                            ref: Reference): Option[String] = {
      val rows = prov.select("vertex", "origin", "quantity").collect()
      Option.when(engines != components)(s"$engines engines for $components components")
        .orElse(Checks.perVertex(rows.iterator.map(r => r.getLong(0) -> r.getDouble(2)), ref))
        .orElse(Checks.perOrigin(rows.iterator.map(r => r.getLong(1) -> r.getDouble(2)), ref,
                                 Expect.Exact))
    }

    def pass(): PassResult = {
      passNo += 1
      val layers = mutable.ArrayBuffer.empty[(String, Double)]
      def layer[A](name: String)(body: => A): A = {
        spark.sparkContext.setJobGroup(s"$name#$passNo", name)
        val m0 = Probe.mark()
        val out = tracer.span(name)(body)()
        layers += s"${name}_s" -> m0.wallS(Probe.mark())
        spark.sparkContext.clearJobGroup()
        out
      }
      EngineRegistry.clear()
      val m0 = Probe.mark()
      // Each stage's output is materialised once with an eager local
      // checkpoint, so later stages and the checks never re-run it.
      val tin = layer("tin.generate")(TinGen.generate(spark, profile, Components, seed).localCheckpoint())
      val rs = layer("tin.to_interactions")(TinGen.toInteractions(tin))
      val tagged = layer("dist.cc")(DistributedProvenance.tag(spark, tin.drop("component")).toDF().localCheckpoint())
      val prov = layer("dist.replay")(replay(tagged))
      val edges = tin.select("src", "dst")
      val results = queries.map { q =>
        layer(s"dist.query.${q.name}") { val df = q.run(prov, edges); df -> df.collect() }
      }
      val m1 = Probe.mark()
      val peak = EngineRegistry.peakBytesSum
      val engines = EngineRegistry.count
      val repeats = (1 to ReplayRepeats).map { i =>
        EngineRegistry.clear()
        val g = s"dist.replay.$i#$passNo"
        spark.sparkContext.setJobGroup(g, "dist.replay")
        val out = replay(tagged)
        spark.sparkContext.clearJobGroup()
        (g, out, EngineRegistry.count)
      }

      val failures = new Workload.Failures(checking)
      val ref = new Reference(rs)
      failures.check("to_interactions")(Checks.timeOrdered(rs, profile.interactions))
      val byLabel = tagged.select("id", "component").collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
      failures.check("cc") {
        val uf = Checks.components(rs)
        val byRoot = rs.iterator.map(r => r.id -> uf(r.s)).toMap
        val byGen = tin.select("id", "component").collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
        Checks.samePartition(byLabel, byRoot).orElse(Checks.refines(byRoot, byGen))
      }
      val components = byLabel.valuesIterator.toSet.size
      failures.check("replay")(checkReplay(prov, engines, components, ref))
      val repeatFailures = repeats.count { case (g, out, n) =>
        val f = new Workload.Failures(checking)
        f.check(g.takeWhile(_ != '#'))(checkReplay(out, n, components, ref))
        f.count > 0
      }
      failures.check("totals_by_origin") {
        val got = results.head._2.map(r => r.getLong(0) -> r.getDouble(1)).toMap
        Checks.sameSums("origin", got, ref.generated)
      }
      val provTable = prov.select("vertex", "origin", "quantity")
      results.zip(queries).foreach { case ((df, rows), q) =>
        val sampled = (c: String) => col(c) % OracleSample === 0
        val keyOf = df.schema.fieldIndex(q.key)
        val tables = Seq("prov" -> provTable.where(sampled(q.key))) ++
          (if (q.sql.contains("edges")) Seq("edges" -> edges.where(sampled("dst"))) else Nil)
        failures.check(s"query.${q.name}")(
          oracle(spark, rows.filter(_.getLong(keyOf) % OracleSample == 0).toSeq, df, q.sql, tables: _*))
      }

      val rp = counts.await(spark, s"dist.replay#$passNo")
      val replayCpuNs = rp.cpuNs +: repeats.map { case (g, _, _) => counts.await(spark, g).cpuNs }
      if (traced) {
        val cc = counts.await(spark, s"dist.cc#$passNo")
        val listened = Seq(
          "dist.cc_jobs" -> cc.jobs.toDouble, "dist.cc_shuffle_bytes" -> cc.shuffleBytes.toDouble,
          "dist.replay_max_task_s" -> rp.maxTaskMs / 1e3,
          "dist.replay_shuffle_bytes" -> rp.shuffleBytes.toDouble,
        )
        listened.foreach { case (n, v) => tracer.count(n, v) }
        layers ++= listened
      }
      PassResult(m0.wallS(m1), m0.cpuS(m1), m0.allocTo(m1), m0.gcS(m1), m0.jitS(m1), rs.length.toLong,
                 replayCpuNs.map(ns => rs.length / (ns / 1e9)), Seq(peak.toDouble),
                 1 + ReplayRepeats, (if (failures.count > 0) 1 else 0) + repeatFailures,
                 layers.toSeq)
    }
  }

  /** spark-streaming: the tagged TIN fed to `StreamingProvenance` (FIFO)
    * in equal micro-batches. One pass is one operation.
    */
  private final class Streaming(seed: Long, work: Path, tracer: Tracer)
      extends SparkWorkload(work) {
    private var tagged: Array[TaggedInteraction] = _
    private var batches: Seq[Array[TaggedInteraction]] = _
    private var ref: Reference = _
    private var expected: Map[(Long, Long), Double] = _
    private var componentOf: Map[Long, Long] = _
    private var passNo = 0

    def setup(): Unit = {
      startSpark()
      val s = spark
      import s.implicits._
      val tin = TinGen.generate(spark, profile, Components, seed)
      tagged = DistributedProvenance.tag(spark, tin).collect().sortBy(_.id)
      val per = (tagged.length + MicroBatches - 1) / MicroBatches
      batches = tagged.grouped(per).toSeq
      val rs = tagged.map(r => Interaction(r.src, r.dst, r.ts, r.qty, r.id))
      ref = new Reference(rs)
      val batchEngine = new OrderedEngine(Policy.Fifo).processAll(rs)
      expected = Checks.byPair(batchEngine.snapshot())
      componentOf = tagged.iterator.flatMap(r => Iterator(r.src -> r.component, r.dst -> r.component)).toMap
      warmUp(1, checked = false)
    }

    def pass(): PassResult = {
      passNo += 1
      val s = spark
      import s.implicits._
      implicit val ctx: org.apache.spark.sql.SQLContext = spark.sqlContext
      val name = s"stream$passNo"
      val ckpt = work.resolve(s"checkpoint-$passNo")
      val input = MemoryStream[TaggedInteraction]
      val m0 = Probe.mark()
      val query = tracer.span("dist.stream") {
        val q = StreamingProvenance(spark, input.toDS(), Policy.Fifo)
          .writeStream.format("memory").queryName(name).outputMode("update")
          .option("checkpointLocation", ckpt.toString).start()
        batches.foreach { b => input.addData(b.toSeq); q.processAllAvailable() }
        q
      }()
      val m1 = Probe.mark()
      query.stop()
      val progress = query.recentProgress.filter(_.numInputRows > 0)
      val states = progress.flatMap(_.stateOperators.headOption)

      val failures = new Workload.Failures(checking)
      failures.check("stream") {
        val rows = spark.table(name).as[StreamingProvenance.StreamedProvRow].collect()
        val last = rows.groupMapReduce(r => componentOf(r.vertex))(_.batch)(math.max)
        val latest = rows.filter(r => r.batch == last(componentOf(r.vertex)))
        val got = latest.groupMapReduce(r => (r.vertex, r.origin))(_.quantity)(_ + _)
        Checks.samePairs(got, expected)
          .orElse(Checks.perVertex(latest.iterator.map(r => r.vertex -> r.quantity), ref))
          .orElse(Checks.perOrigin(latest.iterator.map(r => r.origin -> r.quantity), ref, Expect.Exact))
      }
      spark.catalog.dropTempView(name)
      deleteTree(ckpt)

      def trigger(i: Int) = progress(i).durationMs.get("triggerExecution").toDouble / 1e3
      val layers =
        if (progress.isEmpty) Nil
        else Seq("dist.stream.first_trigger_s" -> trigger(0),
                 "dist.stream.last_trigger_s" -> trigger(progress.length - 1),
                 "dist.stream.state_rows" -> states.lastOption.map(_.numRowsTotal.toDouble).getOrElse(0.0))
      PassResult(m0.wallS(m1), m0.cpuS(m1), m0.allocTo(m1), m0.gcS(m1), m0.jitS(m1),
                 tagged.length.toLong,
                 Seq(tagged.length / m0.cpuS(m1)),
                 Seq(states.map(_.memoryUsedBytes.toDouble).maxOption.getOrElse(0.0)), 1,
                 if (failures.count > 0) 1 else 0, layers)
    }
  }

  private def deleteTree(p: Path): Unit =
    if (Files.exists(p)) {
      val all = Files.walk(p)
      try all.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(f => Files.delete(f))
      finally all.close()
    }
}
