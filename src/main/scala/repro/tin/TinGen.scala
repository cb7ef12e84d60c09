package repro.tin

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Interaction
import repro.dist.TaggedInteraction

/** Deterministic synthetic TIN generators standing in for the five real
  * datasets of Table 6 (the dumps are not redistributable; see DESIGN.md
  * §4 for the substitution argument). Each profile preserves the paper
  * dataset's vertex count : interaction count ratio, quantity
  * distribution, and endpoint skew, at a lite scale.
  *
  * Output schema: `id` (stream position, also the tie-breaker), `ts`
  * (time, strictly increasing with id), `src`, `dst` (vertex ids,
  * contiguous in `[0, vertices)`), `qty`, `component` (independent
  * sub-network id — interactions never cross components, which gives the
  * distributed layer real parallelism; the single giant component of the
  * real datasets is `nComponents = 1`). Every row is a pure function of
  * (profile, nComponents, seed, id), [[TinGen.row]], so the Spark frame
  * and the local stream are the same rows under any partitioning.
  */
object TinGen {

  /** Quantity distribution of a profile. */
  sealed trait QtyDist
  /** Exponential with the given mean — heavy-tailed transfer amounts. */
  final case class Exponential(mean: Double) extends QtyDist
  /** Uniform in [lo, hi]. */
  final case class Uniform(lo: Double, hi: Double) extends QtyDist
  /** Integer-uniform in [lo, hi] — the Flights passenger counts. Integer
    * granularity matters: buffer fragments bottom out at whole passengers
    * and then relay as whole elements, which is what produces the paper's
    * very long Flights paths (Table 10) at a small element count.
    */
  final case class UniformInt(lo: Int, hi: Int) extends QtyDist
  /** Taxi party sizes: 1–6 passengers, weighted to small parties. */
  case object Passengers extends QtyDist

  /** One synthetic dataset profile (see DESIGN.md §4 for the scales).
    *
    * @param uniformMix   probability an endpoint is drawn uniformly over
    *                     the vertex range instead of from the zipf head —
    *                     real TINs have a few hubs plus a long tail of
    *                     rarely-active vertices
    * @param disjointFrac probability an interaction flows from the
    *                     "source half" to the "sink half" of the vertex
    *                     range — models networks where most quantity is
    *                     freshly generated and rarely relayed onward
    *                     (loans, botnet traffic), which is what keeps the
    *                     paper's Prosper/CTU path lengths below 1
    */
  final case class Profile(
      name: String,
      vertices: Int,
      interactions: Long,
      skewAlpha: Double,
      qty: QtyDist,
      paperVertices: String,
      paperInteractions: String,
      paperAvgQ: String,
      uniformMix: Double = 0.0,
      disjointFrac: Double = 0.0,
  ) {
    /** Uniformly scaled-down copy (≥ 8 vertices, ≥ 1 interaction). */
    def scaled(frac: Double): Profile =
      copy(
        vertices = math.max(8, (vertices * frac).toInt),
        interactions = math.max(1L, (interactions * frac).toLong),
      )
  }

  /** Lite-scale analogs of Table 6 (paper numbers kept for reporting).
    * Mix/disjoint knobs are tuned so the per-dataset *shapes* of Tables
    * 7–10 hold: bitcoin/ctu sparse-infeasible, prosper mostly-newborn
    * (short paths, heavy budget shrinking), flights relay-heavy (very
    * long paths thanks to its huge R:V ratio).
    */
  val bitcoin: Profile =
    Profile("bitcoin", 120_000, 455_000L, 1.1, Exponential(34.4), "12M", "45.5M", "34.4",
            uniformMix = 0.5, disjointFrac = 0.3)
  val ctu: Profile =
    Profile("ctu", 60_800, 280_000L, 1.1, Exponential(19_200.0), "608K", "2.8M", "19.2KB",
            uniformMix = 0.5, disjointFrac = 0.4)
  val prosper: Profile =
    Profile("prosper", 10_000, 308_000L, 1.05, Exponential(76.0), "100K", "3.08M", "76",
            uniformMix = 0.5, disjointFrac = 0.95)
  // Flights keeps 50% of the paper's interactions over the full 629
  // airports: its signature result (avg path length 273, Table 10) is a
  // pure R:V-ratio effect — buffers fragment into ever-smaller elements
  // that each transfer then relays by the dozens — so this is the one
  // profile where R cannot be scaled down aggressively.
  val flights: Profile =
    Profile("flights", 629, 2_850_000L, 0.8, UniformInt(50, 200), "629", "5.7M", "125")
  val taxis: Profile =
    Profile("taxis", 255, 23_100L, 0.8, Passengers, "255", "231K", "1.53")

  val all: Seq[Profile] = Seq(bitcoin, ctu, prosper, flights, taxis)
  def byName(name: String): Profile =
    all.find(_.name == name).getOrElse(sys.error(s"unknown TIN profile: $name"))

  /** SplitMix64's finaliser: a bijective 64-bit mix. */
  private def mix(z0: Long): Long = {
    var z = (z0 ^ (z0 >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  private final val Gamma = 0x9e3779b97f4a7c15L

  // Taxi party sizes 1..6: P = .70/.15/.07/.04/.02/.02 → mean ≈ 1.59 (paper: 1.53)
  private val PassengerCdf = Array(0.70, 0.85, 0.92, 0.96, 0.98)

  private def quantity(dist: QtyDist, u: Double): Double = dist match {
    case Exponential(mean)  => -mean * math.log(1.0 - u)
    case Uniform(lo, hi)    => lo + u * (hi - lo)
    case UniformInt(lo, hi) => (lo + (u * (hi - lo + 1)).toLong).toDouble
    case Passengers         => 1.0 + PassengerCdf.count(_ <= u)
  }

  /** Row `id` of a profile's stream — the one definition behind both
    * [[generate]] and [[local]]. Interactions and vertex ranges are
    * partitioned round-robin over `nComponents` disjoint sub-networks.
    */
  def row(profile: Profile, nComponents: Int, seed: Long, id: Long): TaggedInteraction = {
    // uniform draw in [0, 1) for `column`: a pure function of (seed, id,
    // column), so a row does not depend on which partition generates it or
    // in which order (a counter-based generator, Salmon et al., "Parallel
    // random numbers: as easy as 1, 2, 3", SC 2011)
    val key = mix(mix(seed) + Gamma * (id + 1))
    def u(column: Int) = (mix(key + Gamma * (column + 1)) >>> 11) * (1.0 / (1L << 53))
    val vPerComp = profile.vertices / nComponents
    // endpoint in [lo, lo + size): a uniform tail vertex, or a zipf-head hub
    // by inverse-CDF over rank weights 1/k^alpha (rank 0 is hottest)
    def endpoint(lo: Int, size: Int, column: Int): Long = lo + {
      if (u(column) < profile.uniformMix) math.min(size - 1L, (u(column + 1) * size).toLong)
      else {
        val k = math.pow(1.0 / (u(column + 2) + 1e-9), 1.0 / profile.skewAlpha) - 1.0
        math.min(size - 1L, math.max(0L, k.toLong))
      }
    }
    // a disjoint interaction flows from the source half to the sink half
    val disjoint = u(0) < profile.disjointFrac
    val sinkLo = if (disjoint) vPerComp / 2 else 0
    val src = endpoint(0, if (disjoint) sinkLo else vPerComp, 1)
    val dst0 = endpoint(sinkLo, vPerComp - sinkLo, 4)
    // self-loops transfer nothing: bump equal endpoints by one (mod n);
    // the disjoint source/sink halves never collide by construction
    val dst = if (dst0 == src) (dst0 + 1) % vPerComp else dst0
    val component = id % nComponents
    val offset = component * vPerComp
    val qty = math.round(quantity(profile.qty, u(7)) * 1e6) / 1e6
    TaggedInteraction(id, id, offset + src, offset + dst, qty, component)
  }

  /** Generate a profile's interaction stream.
    *
    * @param nComponents number of disjoint sub-networks (vertex ranges and
    *                    interactions are partitioned round-robin)
    * @param seed        generator seed — identical inputs for Spark and
    *                    the DuckDB oracle
    */
  def generate(spark: SparkSession, profile: Profile, nComponents: Int = 1,
               seed: Long = 42L): DataFrame = {
    require(nComponents >= 1 && profile.vertices >= 4 * nComponents,
            s"need ≥4 vertices per component")
    import spark.implicits._
    spark.range(profile.interactions).map(id => row(profile, nComponents, seed, id)).toDF()
  }

  /** A profile's single-component stream without a SparkSession, in
    * stream order: the rows of `generate(spark, profile, 1, seed)`.
    */
  def local(profile: Profile, seed: Long = 42L): Array[Interaction] =
    Array.tabulate(profile.interactions.toInt) { i =>
      val r = row(profile, 1, seed, i)
      Interaction(r.src, r.dst, r.ts, r.qty, r.id)
    }

  /** Collect a generated TIN into the time-ordered interaction array the
    * sequential engines consume. Lite scales fit comfortably in memory.
    */
  def toInteractions(df: DataFrame): Array[Interaction] =
    df.select("src", "dst", "ts", "qty", "id")
      .collect()
      .map(r => Interaction(r.getLong(0), r.getLong(1), r.getLong(2), r.getDouble(3), r.getLong(4)))
      .sortBy(r => (r.t, r.id))
}
