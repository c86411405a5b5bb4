(* The benchmark program: one workload per process.

     bench.exe WORKLOAD --seed N --seconds S --trace 0|1
               --expected FILE --work DIR [--ctamap EXE] [--counts FILE]
     bench.exe pin --out FILE

   Prints one information line and then, as its last line, the JSON
   result {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics untraced, the per-layer metrics traced.  [pin] recomputes
   the pinned outputs that every run is checked against. *)

module J = Ctam_util.Json
open Ctam_arch
open Ctam_core
module Kernel = Ctam_workloads.Kernel
module Suite = Ctam_workloads.Suite
module Lower = Ctam_frontend.Lower
module Unparse = Ctam_frontend.Unparse
module Ingest = Ctam_tracein.Ingest
module Reader = Ctam_tracein.Reader
module Engine = Ctam_cachesim.Engine
module Hierarchy = Ctam_cachesim.Hierarchy
module Stats = Ctam_cachesim.Stats

let end_to_end_units =
  [
    ("setup_s", "s"); ("wall_s", "s"); ("compile_s", "s"); ("simulate_s", "s");
    ("p50_ms", "ms"); ("p99_ms", "ms"); ("rps", "1/s"); ("peak_rss_mb", "MB");
    ("cycles_vs_base", "ratio"); ("mem_vs_base", "ratio");
  ]

let per_layer_units =
  [
    ("frontend.s", "s"); ("frontend.minor_words", "words");
    ("blocks.s", "s"); ("blocks.minor_words", "words"); ("blocks.groups", "count");
    ("deps.s", "s"); ("deps.edges", "count"); ("deps.groups_merged", "count");
    ("distribute.s", "s"); ("distribute.minor_words", "words");
    ("distribute.major_words", "words"); ("distribute.pieces", "count");
    ("schedule.s", "s"); ("schedule.rounds", "count");
    ("trace.s", "s"); ("trace.accesses", "count");
    ("baselines.s", "s");
    ("engine.s", "s"); ("engine.ns_per_access", "ns"); ("engine.minor_words", "words");
    ("engine.accesses", "count"); ("engine.cycles", "count");
    ("engine.mem_accesses", "count");
    ("tracein.s", "s"); ("tracein.ns_per_record", "ns");
    ("tracein.minor_words_per_record", "words"); ("tracein.records", "count");
    ("serve.hit_ms", "ms"); ("serve.miss_ms", "ms"); ("serve.reply_bytes", "bytes");
    ("plan_cache.hit_ratio", "ratio"); ("plan_cache.lookup_us", "us");
    ("request.key_us", "us"); ("run_report.s", "s"); ("traced.wall_s", "s");
  ]

(* --- pinned outputs ----------------------------------------------------- *)

let summary_json (s : Pipeline.summary) =
  J.Obj
    [
      ("cycles", J.Int s.cycles); ("mem", J.Int s.mem);
      ("accesses", J.Int s.accesses); ("groups", J.Int s.groups);
      ("rounds", J.Int s.rounds); ("edges", J.Int s.edges);
    ]

let expected = ref (J.Obj [])

(* Every run's outputs by operation, for [--counts]. *)
let outputs : (string, J.t) Hashtbl.t = Hashtbl.create 32

let pinned path =
  List.fold_left
    (fun j k ->
      match J.member k j with
      | Some v -> v
      | None -> failwith ("no pinned output " ^ String.concat "/" path))
    !expected path

let check_summary what path (s : Pipeline.summary) =
  let want = J.to_string (pinned path) and got = J.to_string (summary_json s) in
  if want = got then Ok ()
  else Error (Printf.sprintf "%s: got %s, pinned %s" what got want)

(* --- the mapping workloads --------------------------------------------- *)

type batch = {
  kernels : string list;
  schemes : Mapping.scheme list;
  warmup : string * int;  (** a kernel outside the timed set, and its size *)
}

let map_combined =
  {
    kernels = [ "equake"; "mesa"; "galgel"; "applu"; "h264" ];
    schemes = [ Mapping.Combined ];
    warmup = ("freqmine", 512);
  }

let compare_schemes =
  {
    kernels = [ "sp"; "facesim"; "cg"; "namd"; "povray"; "bodytrack" ];
    schemes = Mapping.all_schemes;
    warmup = ("freqmine", 512);
  }

let batch_scale = 64
let dsl k = Unparse.program (Kernel.program (Suite.by_name k))
let warmup_key (k, size) = Printf.sprintf "%s/%d" k size

let batch_setup b =
  let machine = Machines.dunnington ~scale:batch_scale () in
  let texts = List.map (fun k -> (k, dsl k)) b.kernels in
  let k, size = b.warmup in
  let small = Unparse.program (Kernel.program ~size (Suite.by_name k)) in
  Measure.attempt "warm-up" (fun () ->
      let s, _ =
        Pipeline.untraced Mapping.Combined ~machine (Lower.compile small)
      in
      check_summary "warm-up"
        [ "mapping"; warmup_key b.warmup; Mapping.scheme_name Mapping.Combined ]
        s);
  (machine, texts)

(* Before each timed kernel: collect what earlier kernels left, so the
   peak heap does not depend on the seeded kernel order. *)
let settle () = Gc.full_major ()

(* Pass [p]'s kernel order: a seeded permutation. *)
let order ~seed p l =
  let st = Random.State.make [| seed; p |] in
  List.map (fun x -> (Random.State.bits st, x)) l
  |> List.sort compare |> List.map snd

let per_op_medians tbl =
  Hashtbl.fold (fun _ l acc -> Measure.median l :: acc) tbl []

let batch_untraced b ~machine ~texts ~seed ~seconds =
  let wall = Hashtbl.create 8 and comp = Hashtbl.create 8
  and sim = Hashtbl.create 8 and lat = Hashtbl.create 32 in
  let push tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  let results = Hashtbl.create 32 in
  let t_start = Measure.now () in
  let rec pass p =
    let continue_ =
      List.for_all
        (fun k ->
          if p > 0 && Measure.now () -. t_start >= seconds then false
          else begin
            settle ();
            let t0 = Measure.now () in
            let prog = Lower.compile (List.assoc k texts) in
            let lower = Measure.now () -. t0 in
            let c = ref lower and s = ref 0. in
            List.iter
              (fun scheme ->
                let name = Mapping.scheme_name scheme in
                Measure.attempt (k ^ "/" ^ name) (fun () ->
                    let summary, tm = Pipeline.untraced scheme ~machine prog in
                    c := !c +. tm.Pipeline.compile_s;
                    s := !s +. tm.Pipeline.simulate_s;
                    Hashtbl.replace results (k, scheme) summary;
                    push lat (k, name)
                      ((if List.length b.schemes = 1 then lower else 0.)
                      +. tm.Pipeline.compile_s +. tm.Pipeline.simulate_s);
                    check_summary (k ^ "/" ^ name) [ "mapping"; k; name ] summary))
              b.schemes;
            push wall k (Measure.now () -. t0);
            push comp k !c;
            push sim k !s;
            true
          end)
        (order ~seed p b.kernels)
    in
    if continue_ then pass (p + 1)
  in
  pass 0;
  let total tbl = Measure.sum (per_op_medians tbl) in
  let wall_s = total wall in
  let lat = per_op_medians lat in
  Hashtbl.iter
    (fun (k, scheme) s ->
      Hashtbl.replace outputs (k ^ "/" ^ Mapping.scheme_name scheme) (summary_json s))
    results;
  (* Combined / Base per kernel: Base as measured when the workload
     maps it, as pinned otherwise. *)
  let ratio field =
    Measure.geomean
      (List.map
         (fun k ->
           let get scheme =
             let name = Mapping.scheme_name scheme in
             float_of_int
               (match Hashtbl.find_opt results (k, scheme) with
               | Some s -> if field = "cycles" then s.Pipeline.cycles else s.Pipeline.mem
               | None -> J.to_int (pinned [ "mapping"; k; name; field ]))
           in
           get Mapping.Combined /. get Mapping.Base)
         b.kernels)
  in
  [
    ("wall_s", wall_s);
    ("compile_s", total comp);
    ("simulate_s", total sim);
    ("p50_ms", 1000. *. Measure.quantile 0.5 lat);
    ("p99_ms", 1000. *. Measure.quantile 0.99 lat);
    ( "rps",
      float_of_int (List.length b.kernels * List.length b.schemes) /. wall_s );
    ("peak_rss_mb", Measure.peak_rss_mb 0);
    ("cycles_vs_base", ratio "cycles");
    ("mem_vs_base", ratio "mem");
  ]

(* --- traced passes ----------------------------------------------------- *)

type traced_pass = {
  wall : float;
  self : string -> Span.self;
  counts : (string * int) list;
}

(* Runs [f p] for passes p = 0, 1, ... under tracing until [seconds]
   have passed; [f] returns the seconds its timed work took.  Counts
   must repeat exactly from pass to pass. *)
let traced_passes ~seconds f =
  Span.enabled := true;
  let passes = ref [] in
  Measure.repeat_for ~seconds (fun p ->
      Hashtbl.reset Span.counts;
      let m = Span.mark () in
      let wall = f p in
      let counts =
        List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) Span.counts [])
      in
      passes := { wall; self = Span.self_by_layer (Span.since m); counts } :: !passes);
  Span.enabled := false;
  let passes = List.rev !passes in
  let first = List.hd passes in
  Measure.attempt "traced counts repeat across passes" (fun () ->
      if List.for_all (fun p -> p.counts = first.counts) passes then Ok ()
      else Error "a traced pass counted different work");
  passes

(* Per-layer metrics: self seconds as the median over passes; counts
   and allocated words from the first pass, which every run makes in
   the same state. *)
let layer_metrics passes =
  let first = List.hd passes in
  let secs l = Measure.median (List.map (fun p -> (p.self l).Span.seconds) passes) in
  let minor l = (first.self l).Span.minor_words in
  let count c = float_of_int (Option.value ~default:0 (List.assoc_opt c first.counts)) in
  let per x n = if n > 0. then x /. n else 0. in
  let layer l = [ (l ^ ".s", secs l) ] in
  List.concat
    [
      layer "frontend"; [ ("frontend.minor_words", minor "frontend") ];
      layer "blocks";
      [ ("blocks.minor_words", minor "blocks"); ("blocks.groups", count "blocks.groups") ];
      layer "deps";
      [ ("deps.edges", count "deps.edges"); ("deps.groups_merged", count "deps.groups_merged") ];
      layer "distribute";
      [
        ("distribute.minor_words", minor "distribute");
        ("distribute.major_words", (first.self "distribute").Span.major_words);
        ("distribute.pieces", count "distribute.pieces");
      ];
      layer "schedule"; [ ("schedule.rounds", count "schedule.rounds") ];
      layer "trace"; [ ("trace.accesses", count "trace.accesses") ];
      layer "baselines";
      layer "engine";
      [
        ("engine.ns_per_access", 1e9 *. per (secs "engine") (count "engine.accesses"));
        ("engine.minor_words", minor "engine");
        ("engine.accesses", count "engine.accesses");
        ("engine.cycles", count "engine.cycles");
        ("engine.mem_accesses", count "engine.mem_accesses");
      ];
      layer "tracein";
      [
        ("tracein.ns_per_record", 1e9 *. per (secs "tracein") (count "tracein.records"));
        ("tracein.minor_words_per_record", per (minor "tracein") (count "tracein.records"));
        ("tracein.records", count "tracein.records");
      ];
      [ ("traced.wall_s", Measure.median (List.map (fun p -> p.wall) passes)) ];
    ]

let batch_traced b ~machine ~texts ~seed ~seconds =
  let passes =
    traced_passes ~seconds (fun p ->
        List.fold_left
          (fun wall k ->
            settle ();
            let t0 = Measure.now () in
            let prog =
              Span.with_ "frontend" (fun () -> Lower.compile (List.assoc k texts))
            in
            List.iter
              (fun scheme ->
                let name = Mapping.scheme_name scheme in
                Measure.attempt (k ^ "/" ^ name ^ " traced") (fun () ->
                    let s = Pipeline.traced scheme ~machine prog in
                    Hashtbl.replace outputs (k ^ "/" ^ name) (summary_json s);
                    check_summary (k ^ "/" ^ name ^ " traced") [ "mapping"; k; name ] s))
              b.schemes;
            wall +. (Measure.now () -. t0))
          0. (order ~seed p b.kernels))
  in
  layer_metrics passes

let batch b ~seed ~seconds ~trace =
  let setup_s, (machine, texts) =
    Measure.set_up_three_times (fun () -> batch_setup b)
  in
  if trace then batch_traced b ~machine ~texts ~seed ~seconds
  else ("setup_s", setup_s) :: batch_untraced b ~machine ~texts ~seed ~seconds

(* --- simtrace-replay --------------------------------------------------- *)

let trace_opts = { Ingest.default with Ingest.cores = 4; interleave = Ingest.Tagged }
let trace_records = 2_000_000
let trace_scale = 16

(* A seed-independent trace whose replay is pinned. *)
let reference_seed = 2010
let reference_records = 200_000

let pad machine streams =
  Array.init machine.Topology.num_cores (fun i ->
      if i < Array.length streams then streams.(i) else Engine.dense [||])

(* The path `ctamap simtrace` takes: a counting scan, per-core
   generator streams, one engine run. *)
let replay machine text =
  let src = Reader.Text text in
  let t0 = Measure.now () in
  let sc = Ingest.scan trace_opts src in
  let streams = pad machine (Ingest.streams ~scan:sc trace_opts src) in
  let t1 = Measure.now () in
  let stats = Engine.run_streams (Hierarchy.create machine) [ streams ] in
  (sc, stats, t1 -. t0, Measure.now () -. t1)

(* Traced: parsing is measured by itself (scan + load into arrays), so
   the engine span holds only simulation. *)
let traced_replay machine text =
  let src = Reader.Text text in
  let sc, arrays =
    Span.with_ "tracein" (fun () ->
        let sc = Ingest.scan trace_opts src in
        (sc, Ingest.load ~scan:sc trace_opts src))
  in
  Span.count "tracein.records" sc.Ingest.records;
  let h = Span.with_ "engine" (fun () -> Hierarchy.create machine) in
  (sc, Pipeline.run_engine h [ pad machine (Array.map Engine.dense arrays) ])

let check_replay what ~records ?want (sc : Ingest.scan) (stats : Stats.t) =
  let got = J.to_string (Stats.to_json stats) in
  if sc.Ingest.records <> records then
    Error (Printf.sprintf "%s: %d records scanned, %d generated" what sc.Ingest.records records)
  else if stats.Stats.total_accesses <> records then
    Error (Printf.sprintf "%s: %d accesses for %d records" what stats.Stats.total_accesses records)
  else
    match want with
    | Some w when w <> got -> Error (Printf.sprintf "%s: got %s, expected %s" what got w)
    | _ -> Ok ()

let simtrace_setup ~seed =
  let machine = Machines.dunnington ~scale:trace_scale () in
  let text = Tracegen.generate ~seed ~cores:4 ~records:trace_records in
  let reference =
    Tracegen.generate ~seed:reference_seed ~cores:4 ~records:reference_records
  in
  let want = J.to_string (pinned [ "trace_reference" ]) in
  Measure.attempt "reference replay" (fun () ->
      let sc, stats, _, _ = replay machine reference in
      check_replay "reference replay" ~records:reference_records ~want sc stats);
  (machine, text, reference)

let simtrace ~seed ~seconds ~trace =
  let setup_s, (machine, text, reference) =
    Measure.set_up_three_times (fun () -> simtrace_setup ~seed)
  in
  let records = trace_records in
  let first = ref None in
  (* Every replay of the trace must give the first one's statistics. *)
  let check what (sc, stats) =
    Measure.attempt what (fun () ->
        let got = J.to_string (Stats.to_json stats) in
        Hashtbl.replace outputs "replay" (Stats.to_json stats);
        match !first with
        | None ->
            first := Some got;
            check_replay what ~records sc stats
        | Some want -> check_replay what ~records ~want sc stats)
  in
  if trace then begin
    let sc, stats, _, _ = replay machine text in
    check "untraced replay" (sc, stats);
    Measure.attempt "traced reference replay" (fun () ->
        let sc, stats = traced_replay machine reference in
        check_replay "traced reference replay" ~records:reference_records
          ~want:(J.to_string (pinned [ "trace_reference" ])) sc stats);
    layer_metrics
      (traced_passes ~seconds (fun _ ->
           let t0 = Measure.now () in
           let r = traced_replay machine text in
           let wall = Measure.now () -. t0 in
           check "traced replay" r;
           wall))
  end
  else begin
    let samples = ref [] in
    Measure.repeat_for ~seconds (fun _ ->
        let sc, stats, c, s = replay machine text in
        check "replay" (sc, stats);
        samples := (c, s, stats, sc) :: !samples);
    let med f = Measure.median (List.map f !samples) in
    let walls = List.map (fun (c, s, _, _) -> c +. s) !samples in
    let _, _, stats, sc = List.hd !samples in
    let l1_latency = (List.hd (Topology.path_of_core machine 0)).Topology.latency in
    let busiest = Array.fold_left max 0 sc.Ingest.per_core in
    let wall_s = Measure.median walls in
    [
      ("setup_s", setup_s);
      ("wall_s", wall_s);
      ("compile_s", med (fun (c, _, _, _) -> c));
      ("simulate_s", med (fun (_, s, _, _) -> s));
      ("p50_ms", 1000. *. Measure.quantile 0.5 walls);
      ("p99_ms", 1000. *. Measure.quantile 0.99 walls);
      ("rps", float_of_int records /. wall_s);
      ("peak_rss_mb", Measure.peak_rss_mb 0);
      ( "cycles_vs_base",
        float_of_int stats.Stats.cycles /. float_of_int (busiest * l1_latency) );
      ( "mem_vs_base",
        float_of_int stats.Stats.mem_accesses /. float_of_int stats.Stats.total_accesses );
    ]
  end

(* --- pinning ------------------------------------------------------------ *)

let pin out =
  let machine = Machines.dunnington ~scale:batch_scale () in
  let summaries kernels schemes =
    List.map
      (fun (key, kernel, size) ->
        let prog =
          Lower.compile (Unparse.program (Kernel.program ?size (Suite.by_name kernel)))
        in
        ( key,
          J.Obj
            (List.map
               (fun scheme ->
                 let s, _ = Pipeline.untraced scheme ~machine prog in
                 (Mapping.scheme_name scheme, summary_json s))
               schemes) ))
      kernels
  in
  let full = List.map (fun k -> (k, k, None)) in
  let trace_machine = Machines.dunnington ~scale:trace_scale () in
  let reference =
    Tracegen.generate ~seed:reference_seed ~cores:4 ~records:reference_records
  in
  let _, stats, _, _ = replay trace_machine reference in
  let j =
    J.Obj
      [
        ( "mapping",
          J.Obj
            (summaries (full map_combined.kernels) [ Mapping.Base; Mapping.Combined ]
            @ summaries (full compare_schemes.kernels) Mapping.all_schemes
            @ summaries
                [ (warmup_key map_combined.warmup, fst map_combined.warmup,
                   Some (snd map_combined.warmup)) ]
                [ Mapping.Combined ]) );
        ("trace_reference", Stats.to_json stats);
      ]
  in
  let oc = open_out_bin out in
  output_string oc (J.to_string j);
  output_char oc '\n';
  close_out oc

(* --- command line ------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench.exe WORKLOAD --seed N --seconds S --trace 0|1 --expected FILE \
     --work DIR [--ctamap EXE] [--counts FILE]\n\
    \       bench.exe pin --out FILE";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  match args with
  | "pin" :: rest -> (
      match List.assoc_opt "out" (opts [] rest) with
      | Some out -> pin out
      | None -> usage ())
  | workload :: rest ->
      let o = opts [] rest in
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
      let seed = int "seed" and seconds = float_of_int (int "seconds") in
      let trace = int "trace" = 1 and work = get "work" in
      (let ic = open_in_bin (get "expected") in
       expected := J.parse_exn (really_input_string ic (in_channel_length ic));
       close_in ic);
      let metrics, info =
        match workload with
        | "map-combined" -> (batch map_combined ~seed ~seconds ~trace, [])
        | "compare-schemes" -> (batch compare_schemes ~seed ~seconds ~trace, [])
        | "simtrace-replay" -> (simtrace ~seed ~seconds ~trace, [])
        | "serve-mix" ->
            Serve_mix.run ~ctamap:(get "ctamap") ~work ~seed ~seconds ~trace
        | w ->
            Printf.eprintf "unknown workload %S\n" w;
            exit 2
      in
      let units = if trace then per_layer_units else end_to_end_units in
      let metrics =
        List.map
          (fun (name, unit) ->
            let v =
              match List.assoc_opt name metrics with
              | Some v -> v
              | None -> if trace then 0. else nan
            in
            (name, v, unit))
          units
      in
      if trace then begin
        let oc = open_out_bin (Filename.concat work ("spans-" ^ workload ^ ".json")) in
        output_string oc (J.to_string ~minify:true (Span.to_json ()));
        close_out oc
      end;
      (match List.assoc_opt "counts" o with
      | None -> ()
      | Some path ->
          let oc = open_out_bin path in
          output_string oc
            (J.to_string
               (J.Obj
                  [
                    ( "outputs",
                      J.Obj
                        (List.sort compare
                           (Hashtbl.fold (fun k v a -> (k, v) :: a) outputs [])) );
                    ( "layers",
                      J.Obj (List.map (fun (n, v, _) -> (n, J.Float v)) metrics) );
                  ]));
          close_out oc);
      let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
      print_endline
        (J.to_string ~minify:true
           (J.Obj
              ([
                 ("workload", J.String workload);
                 ("seed", J.Int seed);
                 ("trace", J.Bool trace);
               ]
              @ info)));
      print_endline
        (J.to_string ~minify:true
           (J.Obj
              [
                ("correct", J.Bool (!Measure.failed = 0 && finite));
                ("attempted", J.Int !Measure.attempted);
                ("failed", J.Int !Measure.failed);
                ( "metrics",
                  J.Obj
                    (List.map
                       (fun (n, v, u) ->
                         (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
                       metrics) );
              ]))
  | [] -> usage ()
