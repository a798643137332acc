(** Child processes and the probes the benchmark reads from them: wall
    time on a monotonic clock, exit code, peak resident set size, and the
    OCaml runtime's exit statistics ([OCAMLRUNPARAM=v=0x400]). *)

external now : unit -> (float[@unboxed]) = "perf_now" "perf_now_unboxed"
[@@noalloc]

external wait4 : int -> int * int = "perf_wait4"

type run = {
  code : int;  (** exit code, or 128 + signal *)
  wall : float;  (** seconds from spawn to reap *)
  rss_mb : float;  (** peak resident set size *)
  out : string;
  err : string;
  gc : (string * float) list;  (** exit statistics by name *)
}

(* Children get the runtime's exit statistics and never a cache
   directory from the environment: every store a command uses is named
   on its command line. *)
let child_env =
  lazy
    (Unix.environment () |> Array.to_list
    |> List.filter (fun v ->
           not
             (String.starts_with ~prefix:"OCAMLRUNPARAM=" v
             || String.starts_with ~prefix:"DEFACTO_CACHE_DIR=" v))
    |> List.cons "OCAMLRUNPARAM=v=0x400"
    |> Array.of_list)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* "allocated_words: 23659694" lines; anything else on stderr is kept
   for diagnostics but yields no statistic. *)
let gc_stats err =
  String.split_on_char '\n' err
  |> List.filter_map (fun line ->
         match String.split_on_char ':' line with
         | [ key; v ] ->
             Option.map (fun f -> (key, f)) (float_of_string_opt (String.trim v))
         | _ -> None)

let gc_stat r key = Option.value ~default:0.0 (List.assoc_opt key r.gc)

(** Run [exe args] to completion, capturing both output streams in
    files under [dir]; at most one child exists at a time. *)
let run ~dir exe args =
  let out_path = Filename.concat dir "stdout"
  and err_path = Filename.concat dir "stderr" in
  let open_w p = Unix.openfile p [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let fo = open_w out_path and fe = open_w err_path in
  let t0 = now () in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: args))
      (Lazy.force child_env) Unix.stdin fo fe
  in
  let code, rss_kb = wait4 pid in
  let wall = now () -. t0 in
  Unix.close fo;
  Unix.close fe;
  let err = read_file err_path in
  {
    code;
    wall;
    rss_mb = float_of_int rss_kb /. 1024.0;
    out = read_file out_path;
    err;
    gc = gc_stats err;
  }
