(* The serve-mix workload: one `ctamap serve --workers 1` daemon in its
   own process, driven by one connection in a closed loop.

   Requests come in blocks of [block] `run` requests.  In each block
   one request, at a seeded position, asks for a key the daemon has
   never seen (a fresh alpha on a small kernel), so it compiles,
   simulates and stores; the others are seeded picks from a key set
   primed during set-up, so they are plan-cache hits.

   Every reply is checked.  The first reply for each primed key and
   every miss reply are compared, minus their volatile members, with
   the same request computed in-process; every later hit must repeat
   its key's verified result byte for byte. *)

module J = Ctam_util.Json
open Ctam_serve

(* (kernel, size): small instances, so priming them all takes about
   0.6 s on a quiet host; the Combined replies run from 30 to 110 KB,
   the Base ones are about 10 KB. *)
let hit_kernels =
  [ ("equake", 64); ("mesa", 64); ("applu", 32); ("povray", 128); ("h264", 96) ]

let hit_schemes = [ "base"; "combined" ]
(* Misses cost about 8 ms each, far above any hit. *)
let miss_kernels = [ ("galgel", 48); ("h264", 48) ]

(* One miss per block: a 1.6% share, so p99 falls among the misses. *)
let block = 64

let run_request ?alpha (kernel, size) scheme =
  J.Obj
    ([
       ("op", J.String "run");
       ("program", J.String kernel);
       ("size", J.Int size);
       ("machine", J.String "dunnington");
       ("scale", J.Int 16);
       ("scheme", J.String scheme);
     ]
    @ match alpha with Some a -> [ ("alpha", J.Float a) ] | None -> [])

(* --- the daemon process ------------------------------------------------ *)

type daemon = { pid : int; fd : Unix.file_descr; cache_dir : string }

let live = ref None

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let () =
  at_exit (fun () ->
      match !live with
      | Some d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap d.pid;
          live := None
      | None -> ())

let request_timeout = 60.

(* The daemon's in-memory tier holds the hit keys and the latest
   misses, so its memory does not grow with the number of misses a
   run happens to complete.  Hit keys are touched every few dozen
   requests and never reach the cold end. *)
let cache_entries = 64

let exchange fd payload =
  let deadline = Measure.now () +. request_timeout in
  let on_idle () = if Measure.now () > deadline then `Stop else `Continue in
  match
    Protocol.write_frame fd payload;
    Protocol.read_frame ~max_bytes:(256 * 1024 * 1024) ~on_idle fd
  with
  | Ok reply -> Ok reply
  | Error Protocol.Stopped -> Error "timed out"
  | Error Protocol.Closed -> Error "connection closed"
  | Error (Protocol.Oversized _) -> Error "oversized reply"
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let start ~ctamap ~work i =
  let socket = Filename.concat work "serve.sock" in
  let cache_dir = Filename.concat work (Printf.sprintf "cache-%d" i) in
  remove_tree cache_dir;
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (Filename.concat work "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let pid =
    Unix.create_process ctamap
      [|
        ctamap; "serve"; "--workers"; "1"; "--socket"; socket; "--cache-dir";
        cache_dir; "--cache-entries"; string_of_int cache_entries;
        "--log-level"; "warn";
      |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  let deadline = Measure.now () +. 30. in
  let rec connect () =
    match Client.connect socket with
    | fd -> fd
    | exception Unix.Unix_error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "the daemon exited during start-up");
        if Measure.now () > deadline then failwith "the daemon did not start";
        Unix.sleepf 0.002;
        connect ()
  in
  let fd = connect () in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0;
  let d = { pid; fd; cache_dir } in
  live := Some d;
  d

let stop d =
  ignore (exchange d.fd (J.to_string ~minify:true (J.Obj [ ("op", J.String "shutdown") ])));
  Unix.close d.fd;
  reap d.pid;
  live := None;
  remove_tree d.cache_dir

(* --- checking replies -------------------------------------------------- *)

let volatile = [ "timings_seconds"; "telemetry" ]

let rec strip = function
  | J.Obj ms ->
      J.Obj
        (List.filter_map
           (fun (k, v) -> if List.mem k volatile then None else Some (k, strip v))
           ms)
  | J.List l -> J.List (List.map strip l)
  | j -> j

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* A good reply's head is {"id":null,"request_id":N,"ok":true,
   "cached":B,"result":...}.  Returns B and the result's text. *)
let split_reply reply =
  let head = String.sub reply 0 (min 120 (String.length reply)) in
  let marker cached =
    Printf.sprintf ",\"ok\":true,\"cached\":%b,\"result\":" cached
  in
  let body i m =
    let start = i + String.length m in
    String.sub reply start (String.length reply - start - 1)
  in
  match find_sub head (marker true) with
  | Some i -> Ok (true, body i (marker true))
  | None -> (
      match find_sub head (marker false) with
      | Some i -> Ok (false, body i (marker false))
      | None -> Error ("not an ok reply: " ^ head))

let stable_text j = J.to_string ~minify:true (strip j)

(* [served] must be what computing [req] in-process gives, minus the
   volatile members.  Returns the in-process seconds. *)
let same_as_in_process req served =
  match Request.parse req with
  | Error e -> Error ("request does not parse in-process: " ^ e)
  | Ok r ->
      let t0 = Measure.now () in
      let expected, _ = Request.execute r in
      let seconds = Measure.now () -. t0 in
      if stable_text served = stable_text expected then Ok seconds
      else Error "reply differs from the in-process result"

(* --- the workload ------------------------------------------------------ *)

let hit_keys =
  List.concat_map
    (fun k -> List.map (fun s -> (k, s)) hit_schemes)
    hit_kernels

type primed = {
  request : J.t;
  payload : string;
  stable : string;  (** the verified result minus its volatile members *)
  digest : Digest.t;  (** of this daemon's result text, which hits repeat *)
  result : J.t;
}

(* Start a daemon and send it every hit key once. *)
let setup ~ctamap ~work i =
  let d = start ~ctamap ~work i in
  let replies =
    List.map
      (fun (k, s) ->
        let request = run_request k s in
        (request, exchange d.fd (J.to_string ~minify:true request)))
      hit_keys
  in
  (d, replies)

(* Checks the priming replies: in-process, or against [verified], an
   earlier set-up's replies that were checked in-process. *)
let verify ~verified replies =
  List.mapi
    (fun j (request, reply) ->
      let checked = ref None in
      Measure.attempt ("priming " ^ J.to_string ~minify:true request) (fun () ->
          match Result.bind reply split_reply with
          | Error e -> Error e
          | Ok (true, _) -> Error "a priming request was a cache hit"
          | Ok (false, text) -> (
              let result = J.parse_exn text in
              let p =
                {
                  request;
                  payload = J.to_string ~minify:true request;
                  stable = stable_text result;
                  digest = Digest.string text;
                  result;
                }
              in
              checked := Some p;
              match verified with
              | Some (v : primed array) ->
                  if p.stable = v.(j).stable then Ok ()
                  else Error "reply differs from the first set-up's"
              | None -> Result.map ignore (same_as_in_process request result)));
      match !checked with Some p -> p | None -> failwith "priming failed")
    replies
  |> Array.of_list

type sample = {
  latency : float;
  bytes : int;
  hit : bool;
}

let stats_op fd =
  match exchange fd (J.to_string ~minify:true (J.Obj [ ("op", J.String "stats") ])) with
  | Error e -> failwith ("stats: " ^ e)
  | Ok reply -> (
      let j = J.parse_exn reply in
      let cache = J.member_exn "cache" (J.member_exn "result" j) in
      let get k = J.to_int (J.member_exn k cache) in
      (get "memory_hits", get "memory_misses"))

(* Geomean over the hit kernels of Combined / Base, from the verified
   priming replies ([hit_keys] order: each kernel's schemes in turn). *)
let ratio_geomean primed field =
  let stat p =
    float_of_int (J.to_int (J.member_exn field (J.member_exn "stats" p.result)))
  in
  Measure.geomean
    (List.mapi
       (fun i _ -> stat primed.((2 * i) + 1) /. stat primed.(2 * i))
       hit_kernels)

let run ~ctamap ~work ~seed ~seconds ~trace =
  (* Set-up, three times over; the last daemon serves the timed phase. *)
  let rec setups i verified times =
    let t0 = Measure.now () in
    let d, replies = setup ~ctamap ~work i in
    let times = (Measure.now () -. t0) :: times in
    let primed = verify ~verified replies in
    if i = 2 then (times, d, primed)
    else begin
      stop d;
      setups (i + 1) (Some (Option.value verified ~default:primed)) times
    end
  in
  let setup_times, d, primed = setups 0 None [] in
  let hits0, misses0 = stats_op d.fd in
  (* The timed closed loop. *)
  let st = Random.State.make [| seed; 0x5e7e |] in
  let samples = ref [] and blocks = ref [] and misses = ref [] in
  let nmiss = ref 0 in
  let t_start = Measure.now () in
  let rec loop () =
    let miss_at = Random.State.int st block in
    let b0 = Measure.now () in
    for i = 0 to block - 1 do
      let hit = i <> miss_at in
      let payload, expect =
        if hit then
          let p = primed.(Random.State.int st (Array.length primed)) in
          (p.payload, Some p)
        else begin
          let k = List.nth miss_kernels (!nmiss mod List.length miss_kernels) in
          let alpha =
            0.5 +. (0.001 *. float_of_int !nmiss) +. Random.State.float st 1e-4
          in
          incr nmiss;
          (J.to_string ~minify:true (run_request ~alpha k "combined"), None)
        end
      in
      Measure.attempt "request" (fun () ->
          let t0 = Measure.now () in
          match exchange d.fd payload with
          | Error e -> Error e
          | Ok reply -> (
              let latency = Measure.now () -. t0 in
              samples := { latency; bytes = String.length reply; hit } :: !samples;
              match (split_reply reply, expect) with
              | Error e, _ -> Error e
              | Ok (true, text), Some p ->
                  if Digest.string text = p.digest then Ok ()
                  else Error "hit reply differs from the verified result"
              | Ok (false, text), None ->
                  misses := (payload, text) :: !misses;
                  Ok ()
              | Ok (cached, _), _ ->
                  Error (Printf.sprintf "expected a %s, got cached=%b"
                           (if hit then "hit" else "miss") cached)))
    done;
    blocks := (Measure.now () -. b0) :: !blocks;
    if Measure.now () -. t_start < seconds then loop ()
  in
  loop ();
  let elapsed = Measure.now () -. t_start in
  let hits1, misses1 = stats_op d.fd in
  let daemon_rss = Measure.peak_rss_mb d.pid in
  stop d;
  (* Misses are verified after the loop, so checking costs no latency. *)
  let compile_s = ref [] and simulate_s = ref [] and report_s = ref [] in
  List.iter
    (fun (payload, text) ->
      Measure.attempt "miss reply" (fun () ->
          let served = J.parse_exn text in
          match same_as_in_process (J.parse_exn payload) served with
          | Error e -> Error e
          | Ok seconds ->
              report_s := seconds :: !report_s;
              let timings = J.member_exn "timings_seconds" served in
              let t k = J.to_float (J.member_exn k timings) in
              compile_s :=
                (t "group" +. t "distribute" +. t "schedule" +. t "trace")
                :: !compile_s;
              simulate_s := t "simulate" :: !simulate_s;
              Ok ()))
    !misses;
  let lat = List.map (fun s -> s.latency) !samples in
  let ms x = 1000. *. x in
  let info =
    [
      ("requests", J.Int (List.length !samples));
      ("misses", J.Int !nmiss);
      ("blocks", J.Int (List.length !blocks));
    ]
  in
  if not trace then
    ( [
        ("setup_s", Measure.median setup_times);
        ("wall_s", Measure.median !blocks);
        ("compile_s", Measure.median !compile_s);
        ("simulate_s", Measure.median !simulate_s);
        ("p50_ms", ms (Measure.quantile 0.5 lat));
        ("p99_ms", ms (Measure.quantile 0.99 lat));
        ("rps", float_of_int (List.length !samples) /. elapsed);
        ("peak_rss_mb", daemon_rss);
        ("cycles_vs_base", ratio_geomean primed "cycles");
        ("mem_vs_base", ratio_geomean primed "mem_accesses");
      ],
      info )
  else begin
    (* In-process costs of the hit path: request parsing and keying,
       and the plan-cache lookup itself. *)
    let reps = 200 in
    let requests =
      Array.map
        (fun p ->
          match Request.parse p.request with
          | Ok r -> r
          | Error e -> failwith e)
        primed
    in
    let t0 = Measure.now () in
    for _ = 1 to reps do
      Array.iter
        (fun p ->
          match Request.parse p.request with
          | Ok r -> ignore (Request.key r)
          | Error e -> failwith e)
        primed
    done;
    let n = float_of_int (reps * Array.length primed) in
    let key_us = (Measure.now () -. t0) /. n *. 1e6 in
    let cache = Plan_cache.create () in
    let keys = Array.map Request.key requests in
    Array.iteri (fun i p -> Plan_cache.add cache keys.(i) p.result) primed;
    let t0 = Measure.now () in
    for _ = 1 to reps do
      Array.iter (fun k -> ignore (Plan_cache.lookup cache k)) keys
    done;
    let lookup_us = (Measure.now () -. t0) /. n *. 1e6 in
    let of_kind hit =
      List.filter_map (fun s -> if s.hit = hit then Some s.latency else None) !samples
    in
    let lookups = hits1 - hits0 + (misses1 - misses0) in
    ( [
        ("serve.hit_ms", ms (Measure.median (of_kind true)));
        ("serve.miss_ms", ms (Measure.median (of_kind false)));
        ( "serve.reply_bytes",
          Measure.median (List.map (fun s -> float_of_int s.bytes) !samples) );
        ( "plan_cache.hit_ratio",
          float_of_int (hits1 - hits0) /. float_of_int (max 1 lookups) );
        ("plan_cache.lookup_us", lookup_us);
        ("request.key_us", key_us);
        ("run_report.s", Measure.median !report_s);
        ("traced.wall_s", Measure.median !blocks);
      ],
      info )
  end
