type level = Info | Warn | Error

let level_to_string = function
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type t = { mutex : Mutex.t; oc : out_channel; owns_channel : bool }

let create oc = { mutex = Mutex.create (); oc; owns_channel = false }

let open_file path =
  if path = "-" then create stdout
  else
    let oc =
      open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
    in
    { mutex = Mutex.create (); oc; owns_channel = true }

let timestamp () =
  let now = Unix.gettimeofday () in
  let tm = Unix.gmtime now in
  let ms = int_of_float ((now -. Float.of_int (int_of_float now)) *. 1000.) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ"
    (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
    tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
    (max 0 (min 999 ms))

let log t lvl ?(fields = []) msg =
  let line =
    Json.to_string
      (Json.Obj
         ([
            ("ts", Json.String (timestamp ()));
            ("level", Json.String (level_to_string lvl));
            ("msg", Json.String msg);
          ]
         @ fields))
  in
  Mutex.protect t.mutex (fun () ->
      output_string t.oc line;
      output_char t.oc '\n';
      flush t.oc)

let close t =
  Mutex.protect t.mutex (fun () ->
      flush t.oc;
      if t.owns_channel then close_out t.oc)
