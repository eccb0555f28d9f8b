"""A pure-Python JSON-lines echo server, the host reference for process
hops (see ``hostref.py``).  It prints its port, then echoes each line
until it is terminated.  Like a serving process, it reads on an asyncio
loop and hands each line to a worker thread, which decodes and
re-encodes it.

    python3 e2ebench/echo.py
"""

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor

_POOL = ThreadPoolExecutor(max_workers=4)


def _echo(line: bytes) -> bytes:
    return json.dumps(json.loads(line)).encode("utf-8") + b"\n"


async def _handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    loop = asyncio.get_running_loop()
    try:
        while line := await reader.readline():
            writer.write(await loop.run_in_executor(_POOL, _echo, line))
            await writer.drain()
    finally:
        writer.close()


async def _main() -> None:
    server = await asyncio.start_server(_handle, "127.0.0.1", 0)
    print(server.sockets[0].getsockname()[1], flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(_main())
